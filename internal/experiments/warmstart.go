package experiments

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"nvmalloc"
	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/filecache"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/rpc"
)

// warmDeviceLatency is the emulated SSD service time per chunk access on
// the benefactors: it makes the wire+device fetch path realistically
// expensive, so the scenario measures tier placement rather than loopback
// TCP overhead.
const warmDeviceLatency = 1500 * time.Microsecond

// WarmRow is one client state of the warm-restart scenario.
type WarmRow struct {
	Mode      string
	ReadMBps  float64
	WireBytes int64 // chunk payload bytes fetched from benefactors in the timed pass
	FileHits  int64 // file-tier hits in the timed pass
}

// WarmStart benchmarks the persistent file-backed cache tier
// (internal/filecache) across client restarts: a first client writes and
// reads a dataset through a deliberately tiny RAM cache so every clean
// chunk spills to NVC1 shard files, then fresh client processes measure
// sequential read throughput in three states — cold (no file tier, every
// chunk over the wire from emulated SSDs), file-warm (new process, RAM
// cold, file tier populated from the previous run), and RAM-warm (the
// whole dataset resident in the chunk cache).
func WarmStart(o Opts) ([]WarmRow, *Report, error) {
	ms, err := rpc.NewManagerServer("127.0.0.1:0", wireChunk, manager.RoundRobin)
	if err != nil {
		return nil, nil, err
	}
	defer ms.Close()
	for i := 0; i < 2; i++ {
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i,
			2*o.WireBytes, wireChunk, benefactor.Delay(benefactor.NewMem(), warmDeviceLatency),
			50*time.Millisecond)
		if err != nil {
			return nil, nil, err
		}
		defer bs.Close()
	}

	total := o.WireBytes
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i*131 + 17)
	}
	cacheDir, err := os.MkdirTemp("", "nvc-warmstart-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(cacheDir)

	const file = "warm-restart"

	// Populate: write and read the dataset through a one-chunk RAM cache
	// with the file tier attached, so every chunk is evicted clean and
	// spills; Close commits the shards.
	if err := warmPopulate(ms.Addr(), cacheDir, file, payload); err != nil {
		return nil, nil, err
	}

	nChunks := total / wireChunk
	rows := make([]WarmRow, 0, 3)
	for _, m := range []struct {
		mode     string
		dir      string // "" = no file tier
		ramBytes int64
		passes   int // timed pass is the last one
	}{
		// Cold restart without the tier: RAM cache large enough that the
		// single pass fetches each chunk exactly once — pure wire+device.
		{"cold (wire + emulated SSD)", "", total, 1},
		// Fresh process over the populated cache dir, RAM cache a single
		// chunk: every read misses RAM and hits the shard files.
		{"file-warm (NVC1 tier)", cacheDir, wireChunk, 1},
		// Second pass of a big-RAM client: everything resident.
		{"RAM-warm (chunk cache)", cacheDir, 2 * total, 2},
	} {
		row, err := warmMeasure(ms.Addr(), m.mode, m.dir, file, payload, m.ramBytes, m.passes)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
	}

	rep := &Report{
		ID: "WarmStart",
		Title: fmt.Sprintf("restart read throughput by cache tier: %d MiB, %d KiB chunks, 2 benefactors @ %s SSD latency",
			total>>20, wireChunk>>10, warmDeviceLatency),
		Columns: []string{"client state", "read (MB/s)", "wire (MiB)", "file hits"},
	}
	for _, r := range rows {
		rep.Add(r.Mode, mbps(r.ReadMBps), mib(r.WireBytes), fmt.Sprintf("%d/%d", r.FileHits, nChunks))
	}
	cold, fwarm, rwarm := rows[0], rows[1], rows[2]
	rep.Note("file-warm reads %s of cold, RAM-warm %s of cold; file tier served %d/%d chunks with zero wire traffic",
		ratio(fwarm.ReadMBps, cold.ReadMBps), ratio(rwarm.ReadMBps, cold.ReadMBps), fwarm.FileHits, nChunks)
	return rows, rep, nil
}

// warmPopulate runs the spill-everything first client: one-chunk RAM
// cache, file tier attached, write + read + close.
func warmPopulate(addr, dir, file string, payload []byte) error {
	st, err := rpc.Open(addr)
	if err != nil {
		return err
	}
	c, err := nvmalloc.ConnectStore(st, nvmalloc.ConnectConfig{CacheBytes: wireChunk, ReadAheadChunks: -1, CacheDir: dir})
	if err != nil {
		st.Close()
		return err
	}
	cc := c.ChunkCache()
	if _, err := c.Malloc(nil, int64(len(payload)), nvmalloc.WithName(file)); err != nil {
		c.Close()
		return err
	}
	if err := cc.WriteRange(nil, file, 0, payload); err != nil {
		c.Close()
		return err
	}
	if err := cc.FlushAll(nil); err != nil {
		c.Close()
		return err
	}
	buf := make([]byte, wireChunk)
	for off := int64(0); off < int64(len(payload)); off += wireChunk {
		if err := cc.ReadRange(nil, file, off, buf); err != nil {
			c.Close()
			return err
		}
	}
	return c.Close()
}

// warmMeasure opens a fresh client in the given tier state, reads the
// whole file passes times, and reports throughput plus traffic counters
// of the final (timed) pass.
func warmMeasure(addr, mode, dir, file string, payload []byte, ramBytes int64, passes int) (WarmRow, error) {
	st, err := rpc.Open(addr)
	if err != nil {
		return WarmRow{}, err
	}
	c, err := nvmalloc.ConnectStore(st, nvmalloc.ConnectConfig{CacheBytes: ramBytes, CacheDir: dir})
	if err != nil {
		st.Close()
		return WarmRow{}, err
	}
	defer c.Close()
	cc := c.ChunkCache()
	// fileHits reads the file tier's hit count (0 without CacheDir).
	fileHits := func() int64 {
		if tier, ok := cc.Store().(*filecache.Tier); ok {
			return tier.Stats().Hits
		}
		return 0
	}

	total := int64(len(payload))
	buf := make([]byte, wireChunk)
	readAll := func(verify bool) error {
		for off := int64(0); off < total; off += wireChunk {
			if err := cc.ReadRange(nil, file, off, buf); err != nil {
				return err
			}
			if verify && !bytes.Equal(buf, payload[off:off+wireChunk]) {
				return fmt.Errorf("warmstart: %s: chunk at %d differs from written payload", mode, off)
			}
		}
		return nil
	}
	for i := 0; i < passes-1; i++ {
		if err := readAll(false); err != nil {
			return WarmRow{}, err
		}
	}
	wireBefore := st.Stats().SSDReadBytes
	hitsBefore := fileHits()
	start := time.Now()
	if err := readAll(true); err != nil {
		return WarmRow{}, err
	}
	elapsed := time.Since(start)
	return WarmRow{
		Mode:      mode,
		ReadMBps:  float64(total) / 1e6 / elapsed.Seconds(),
		WireBytes: st.Stats().SSDReadBytes - wireBefore,
		FileHits:  fileHits() - hitsBefore,
	}, nil
}
