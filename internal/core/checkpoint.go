package core

import (
	"errors"
	"fmt"

	"nvmalloc/internal/proto"
	"nvmalloc/internal/store"
)

// RegionLayout records where one NVM variable's chunks sit inside a
// checkpoint file, so it can be restored without copying.
type RegionLayout struct {
	Name       string // the variable's backing file name at checkpoint time
	ChunkStart int    // first chunk index within the checkpoint file
	Chunks     int
	Size       int64
}

// CheckpointInfo describes one completed ssdcheckpoint.
type CheckpointInfo struct {
	Name      string
	DRAMBytes int64
	// DRAMChunks is how many chunks the DRAM dump occupies (they precede
	// the linked variable chunks in the checkpoint file).
	DRAMChunks int
	// LinkedChunks is how many variable chunks were merged by reference —
	// chunks that did NOT have to be copied (the §III-E saving).
	LinkedChunks int
	Regions      []RegionLayout
}

// Checkpoint implements ssdcheckpoint: it snapshots the caller's DRAM
// state and the given NVM regions into one logical restart file on the
// aggregate store.
//
// The DRAM state is streamed into fresh chunks; each region is flushed
// (so its store-resident chunks are current) and then *linked* into the
// checkpoint file — chunk references are appended and refcounts bumped,
// with no data movement. Finally each region is armed copy-on-write so
// compute-phase writes between checkpoints cannot disturb the snapshot.
// Because unmodified chunks stay shared between consecutive checkpoints,
// incremental checkpointing falls out automatically (§III-E).
//
// The order of the regions argument is the layout of the restart file
// (§III-E's user-specified layout): regions are linked after the DRAM
// dump in exactly the order given, and the returned CheckpointInfo
// records each one's chunk range.
func (c *Client) Checkpoint(ctx store.Ctx, name string, dramState []byte, regions ...*Region) (CheckpointInfo, error) {
	if c.cc == nil {
		return CheckpointInfo{}, errors.New("core: this configuration has no NVM store (DRAM-only)")
	}
	sp, ctx := c.rootSpan(ctx, "client.checkpoint", name)
	info, err := c.checkpoint(ctx, name, dramState, regions)
	c.endRoot(ctx, sp, err)
	return info, err
}

// checkpoint is Checkpoint's body, running under the client.checkpoint
// root span.
func (c *Client) checkpoint(ctx store.Ctx, name string, dramState []byte, regions []*Region) (info CheckpointInfo, err error) {
	st := c.cc.Store()
	chunkSize := c.cc.Config().ChunkSize
	info = CheckpointInfo{Name: name, DRAMBytes: int64(len(dramState))}

	// 1. Create the checkpoint file sized for the DRAM dump.
	fi, err := st.Create(ctx, name, int64(len(dramState)))
	if err != nil {
		return info, fmt.Errorf("core: checkpoint create: %w", err)
	}
	defer func() {
		if err != nil {
			// A failed checkpoint leaves nothing under its name, so that a
			// retry can take the name again. The delete is best effort: the
			// caller needs the error that failed the checkpoint.
			c.cc.Drop(ctx, name)
			_ = st.Delete(ctx, name)
		}
	}()
	c.cc.MarkFresh(ctx, fi)
	info.DRAMChunks = len(fi.Chunks)

	// 2. Stream the DRAM state through the FUSE layer and push it out.
	if len(dramState) > 0 {
		if err := c.cc.WriteRange(ctx, name, 0, dramState); err != nil {
			return info, fmt.Errorf("core: checkpoint dram dump: %w", err)
		}
		if err := c.cc.Flush(ctx, name); err != nil {
			return info, fmt.Errorf("core: checkpoint dram flush: %w", err)
		}
	}

	// 3. Flush each region so its store-resident chunks are current, then
	// link them into the checkpoint and arm copy-on-write.
	chunkAt := info.DRAMChunks
	var parts []string
	for _, r := range regions {
		if r.freed {
			return info, fmt.Errorf("core: checkpoint of freed region %q", r.name)
		}
		if err := r.Sync(ctx); err != nil {
			return info, fmt.Errorf("core: checkpoint flush of %q: %w", r.name, err)
		}
		parts = append(parts, r.name)
		n := int((r.size + chunkSize - 1) / chunkSize)
		info.Regions = append(info.Regions, RegionLayout{
			Name: r.name, ChunkStart: chunkAt, Chunks: n, Size: r.size,
		})
		chunkAt += n
		info.LinkedChunks += n
	}
	if len(parts) > 0 {
		linked, err := st.Link(ctx, name, parts)
		if err != nil {
			return info, fmt.Errorf("core: checkpoint link: %w", err)
		}
		// The checkpoint's cached chunk map is stale after the link.
		c.cc.InvalidateMeta(ctx, name)
		for i, r := range regions {
			l := info.Regions[i]
			var chunks []proto.ChunkRef
			if end := l.ChunkStart + l.Chunks; end <= len(linked.Chunks) {
				chunks = linked.Chunks[l.ChunkStart:end]
			}
			c.cc.ArmCOW(ctx, r.name, name, l.ChunkStart, chunks)
		}
	}
	return info, nil
}

// ReadCheckpointDRAM reads the DRAM-state prefix of a checkpoint into buf
// (restart path).
func (c *Client) ReadCheckpointDRAM(ctx store.Ctx, name string, buf []byte) error {
	if c.cc == nil {
		return errors.New("core: this configuration has no NVM store (DRAM-only)")
	}
	return c.cc.ReadRange(ctx, name, 0, buf)
}

// RestoreRegion re-creates an NVM variable from a checkpoint without
// copying data: the new region's backing file references the checkpoint's
// chunks (refcounted, copy-on-write). layout comes from the
// CheckpointInfo written at checkpoint time; newName names the restored
// variable's backing file.
func (c *Client) RestoreRegion(ctx store.Ctx, ckpt string, layout RegionLayout, newName string) (*Region, error) {
	if c.cc == nil {
		return nil, errors.New("core: this configuration has no NVM store (DRAM-only)")
	}
	sp, ctx := c.rootSpan(ctx, "client.restore", newName)
	fi, err := c.cc.Store().Derive(ctx, newName, ckpt, layout.ChunkStart, layout.Chunks, layout.Size)
	if err != nil {
		err = fmt.Errorf("core: restore of %q from %q: %w", layout.Name, ckpt, err)
		c.endRoot(ctx, sp, err)
		return nil, err
	}
	c.cc.RegisterMeta(ctx, fi)
	// The restored region shares chunks with the checkpoint: writes must
	// go copy-on-write immediately.
	c.cc.ArmCOW(ctx, newName, ckpt, layout.ChunkStart, fi.Chunks)
	c.endRoot(ctx, sp, nil)
	return &Region{c: c, name: newName, size: layout.Size}, nil
}

// DeleteCheckpoint removes a checkpoint file; chunks shared with live
// variables or other checkpoints survive.
func (c *Client) DeleteCheckpoint(ctx store.Ctx, name string) error {
	if c.cc == nil {
		return errors.New("core: this configuration has no NVM store (DRAM-only)")
	}
	c.cc.Drop(ctx, name)
	return c.cc.Store().Delete(ctx, name)
}
