package workloads

import (
	"time"

	"nvmalloc/internal/core"
	"nvmalloc/internal/sim"
	"nvmalloc/internal/simtime"
)

// RandWriteParams configures the Table VII synthetic: many small writes to
// random addresses within an NVM-resident region, the adversarial case for
// chunk-granularity storage.
type RandWriteParams struct {
	RegionBytes int64
	Writes      int
	WriteSize   int // bytes per write (paper: byte-by-byte)
	Seed        uint64
	Verify      bool
}

// RandWriteResult reports one run; the FUSE/SSD volumes are the two rows
// of Table VII.
type RandWriteResult struct {
	Params         RandWriteParams
	Elapsed        time.Duration
	FuseWriteBytes int64 // data written to FUSE (page-granular)
	SSDWriteBytes  int64 // data written to the SSD store
	Verified       bool
}

// RunRandWrite executes the synthetic on machine m (whose profile decides
// whether the dirty-page optimization is on: Profile.WriteFullChunks).
func RunRandWrite(m *sim.Machine, prm RandWriteParams) (RandWriteResult, error) {
	if prm.WriteSize == 0 {
		prm.WriteSize = 1
	}
	res := RandWriteResult{Params: prm}
	var runErr error
	m.Eng.Go("randwrite", func(p *simtime.Proc) {
		c := m.NewClient(0)
		r, err := c.Malloc(p, prm.RegionBytes, core.WithName("randwrite"))
		if err != nil {
			runErr = err
			return
		}
		// Populate the region so every chunk exists (setup, then counters
		// reset so only the measured writes are reported).
		blk := make([]byte, 64<<10)
		for off := int64(0); off < prm.RegionBytes; off += int64(len(blk)) {
			n := min(int64(len(blk)), prm.RegionBytes-off)
			if err := r.WriteAt(p, off, blk[:n]); err != nil {
				runErr = err
				return
			}
		}
		if err := r.Sync(p); err != nil {
			runErr = err
			return
		}
		m.ResetCacheStats()
		start := p.Now()

		x := prm.Seed | 1
		data := make([]byte, prm.WriteSize)
		lastVals := make(map[int64]byte)
		for i := 0; i < prm.Writes; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			off := int64(x % uint64(prm.RegionBytes-int64(prm.WriteSize)))
			data[0] = byte(x >> 8)
			if err := r.WriteAt(p, off, data); err != nil {
				runErr = err
				return
			}
			if prm.Verify && i >= prm.Writes-16 {
				lastVals[off] = data[0]
			}
		}
		if err := r.Sync(p); err != nil {
			runErr = err
			return
		}
		res.Elapsed = p.Now().Sub(start).Round(0)
		if prm.Verify {
			// Re-read the final writes through a cold cache (earlier ones
			// may have been overwritten by later random writes).
			c.ChunkCache().Drop(p, "randwrite")
			ok := true
			got := make([]byte, 1)
			for off, val := range lastVals {
				if err := r.ReadAt(p, off, got); err != nil {
					runErr = err
					return
				}
				if got[0] != val {
					ok = false
				}
			}
			res.Verified = ok
		}
	})
	m.Eng.Run()
	s := m.CacheStats()
	res.FuseWriteBytes = s.FuseWriteBytes
	res.SSDWriteBytes = s.SSDWriteBytes
	return res, runErr
}
