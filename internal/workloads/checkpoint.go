package workloads

import (
	"fmt"
	"time"

	"nvmalloc/internal/core"
	"nvmalloc/internal/sim"
	"nvmalloc/internal/simtime"
)

// CkptParams configures the checkpointing study (§IV-B-5): an application
// that holds DRAM state plus an NVM variable, computes, dirties a fraction
// of the variable, and checkpoints every timestep.
type CkptParams struct {
	DRAMBytes int64
	NVMBytes  int64
	Timesteps int
	// DirtyFraction is the fraction of the NVM variable's chunks modified
	// between consecutive checkpoints.
	DirtyFraction float64
	// NaiveCopy disables chunk linking: each checkpoint copies the NVM
	// variable's content into the checkpoint file (the baseline that
	// §III-E's design avoids).
	NaiveCopy bool
	// DrainToPFS additionally streams each checkpoint to the PFS in the
	// background (the staging pattern).
	DrainToPFS bool
	// Verify restarts from the last checkpoint after the run and compares
	// it with the live state. The restart reads through a rank on another
	// compute node, whose cache holds none of the variable's chunks, so
	// the restored bytes come from the store; it needs two compute nodes.
	Verify bool
}

// CkptStep reports one checkpoint timestep.
type CkptStep struct {
	Step          int
	Elapsed       time.Duration
	SSDWriteBytes int64 // store writes caused by this checkpoint
	NewChunks     int   // chunks allocated by this checkpoint
}

// CkptResult reports the full run.
type CkptResult struct {
	Params   CkptParams
	Steps    []CkptStep
	Total    time.Duration
	Verified bool
}

// RunCheckpoint executes the checkpoint scenario on machine m.
func RunCheckpoint(m *sim.Machine, prm CkptParams) (CkptResult, error) {
	res := CkptResult{Params: prm}
	var runErr error
	m.Eng.Go("ckpt", func(p *simtime.Proc) {
		c := m.NewClient(0)
		nv, err := c.Malloc(p, prm.NVMBytes, core.WithName("ckpt.var"))
		if err != nil {
			runErr = err
			return
		}
		dram := make([]byte, prm.DRAMBytes)
		for i := range dram {
			dram[i] = byte(i)
		}
		// Initialize the variable.
		blk := make([]byte, 64<<10)
		for off := int64(0); off < prm.NVMBytes; off += int64(len(blk)) {
			n := min(int64(len(blk)), prm.NVMBytes-off)
			for i := int64(0); i < n; i++ {
				blk[i] = byte(off + i)
			}
			if err := nv.WriteAt(p, off, blk[:n]); err != nil {
				runErr = err
				return
			}
		}
		if err := nv.Sync(p); err != nil {
			runErr = err
			return
		}
		start := p.Now()
		chunkSize := m.Prof.ChunkSize
		nChunks := int((prm.NVMBytes + chunkSize - 1) / chunkSize)
		var lastInfo core.CheckpointInfo
		for t := 0; t < prm.Timesteps; t++ {
			// Compute phase: dirty a fraction of the variable's chunks.
			dirty := int(float64(nChunks) * prm.DirtyFraction)
			for k := 0; k < dirty; k++ {
				idx := (t*7 + k*11) % nChunks
				off := int64(idx) * chunkSize
				stamp := []byte{byte(t), byte(k), 0xCC}
				if err := nv.WriteAt(p, off, stamp); err != nil {
					runErr = err
					return
				}
			}
			// Also mutate DRAM state.
			dram[t%len(dram)] = byte(t)

			name := fmt.Sprintf("ckpt.t%d", t)
			stepStart := p.Now()
			chunksBefore := m.Store.Mgr.TotalChunks()
			writesBefore := storeWrites(m)
			if prm.NaiveCopy {
				err = naiveCheckpoint(p, c, m, name, dram, nv)
			} else {
				lastInfo, err = c.Checkpoint(p, name, dram, nv)
			}
			if err != nil {
				runErr = err
				return
			}
			res.Steps = append(res.Steps, CkptStep{
				Step:          t,
				Elapsed:       p.Now().Sub(stepStart),
				SSDWriteBytes: storeWrites(m) - writesBefore,
				NewChunks:     m.Store.Mgr.TotalChunks() - chunksBefore,
			})
			if prm.DrainToPFS {
				wg, derr := m.DrainToPFS(c, name, "scratch/"+name)
				if derr != nil {
					runErr = derr
					return
				}
				if t == prm.Timesteps-1 {
					wg.Wait(p) // only the final drain gates completion
				}
			}
		}
		res.Total = p.Now().Sub(start)

		if prm.Verify && !prm.NaiveCopy {
			// Restart from the last checkpoint and check both DRAM state
			// and the variable, on another node: ranks on one node share a
			// cache, and there the restore would read the live variable's
			// resident buffers rather than the checkpoint's chunks.
			if m.Cfg.ComputeNodes < 2 {
				runErr = fmt.Errorf("workloads: checkpoint verify needs 2 compute nodes, have %d", m.Cfg.ComputeNodes)
				return
			}
			rc := m.NewClient(m.Cfg.ProcsPerNode) // the first rank of node 1
			got := make([]byte, len(dram))
			if err := rc.ReadCheckpointDRAM(p, lastInfo.Name, got); err != nil {
				runErr = err
				return
			}
			for i := range got {
				if got[i] != dram[i] {
					runErr = fmt.Errorf("workloads: restored DRAM byte %d = %d, want %d", i, got[i], dram[i])
					return
				}
			}
			r2, err := rc.RestoreRegion(p, lastInfo.Name, lastInfo.Regions[0], "ckpt.var.restored")
			if err != nil {
				runErr = err
				return
			}
			a := make([]byte, prm.NVMBytes)
			b := make([]byte, prm.NVMBytes)
			if err := nv.ReadAt(p, 0, a); err != nil {
				runErr = err
				return
			}
			if err := r2.ReadAt(p, 0, b); err != nil {
				runErr = err
				return
			}
			for i := range a {
				if a[i] != b[i] {
					runErr = fmt.Errorf("workloads: restored variable differs at byte %d", i)
					return
				}
			}
			res.Verified = true
		}
	})
	m.Eng.Run()
	return res, runErr
}

// naiveCheckpoint copies the DRAM state AND the full variable content into
// the checkpoint file — what ssdcheckpoint's chunk linking avoids.
func naiveCheckpoint(p *simtime.Proc, c *core.Client, m *sim.Machine, name string, dram []byte, nv *core.Region) error {
	if err := nv.Sync(p); err != nil {
		return err
	}
	cc := c.ChunkCache()
	total := int64(len(dram)) + nv.Size()
	fi, err := cc.Store().Create(p, name, total)
	if err != nil {
		return err
	}
	cc.MarkFresh(p, fi)
	if err := cc.WriteRange(p, name, 0, dram); err != nil {
		return err
	}
	blk := make([]byte, 64<<10)
	for off := int64(0); off < nv.Size(); off += int64(len(blk)) {
		n := min(int64(len(blk)), nv.Size()-off)
		if err := nv.ReadAt(p, off, blk[:n]); err != nil {
			return err
		}
		if err := cc.WriteRange(p, name, int64(len(dram))+off, blk[:n]); err != nil {
			return err
		}
	}
	return cc.Flush(p, name)
}

// storeWrites sums bytes written across all benefactors.
func storeWrites(m *sim.Machine) int64 {
	var total int64
	for _, id := range m.Store.Benefactors() {
		total += m.Store.Benefactor(id).Stats().BytesWritten
	}
	return total
}
