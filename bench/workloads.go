package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"nvmalloc"
	"nvmalloc/internal/experiments"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/shardmap"
)

// Sizing. A workload's work is a fixed op count worked out from the scale
// (seconds of work on the reference 2-core box) and these rates, never a
// time limit: the same seed and scale always give the same ops. The rates
// were measured on the reference box (bench/README.md) and are constants.
const (
	seqRegionBytes     = 64 * mib
	seqCacheBytes      = 16 * mib
	seqWritePassesPerS = 3.5 // per rank, 64 × (1 MiB WriteAt+Sync) each
	seqReadPassesPerS  = 9.0 // per rank, 64 × 1 MiB ReadAt each

	hotRegionBytes = 32 * mib
	hotOpsPerS     = 340000 // per rank

	ckptRegionBytes = 32 * mib
	ckptStepsPerS   = 8.0

	metaCyclesPerS = 2600 // per goroutine, 4 RPCs each

	simFig3RepsPerS   = 1.0 / 6 // one Fig3(Quick()) is ≈ 8 s: one per 6 s segment
	simTable7RepsPerS = 2.0     // ≈ 0.33 s each: twelve per segment, for a steady median
)

// params is one run's input.
type params struct {
	seed   uint64
	scale  float64 // seconds of work on the reference box
	tracer *tracer // nil for the untraced (end-to-end) run
	// simRows carries sim-mm's first rows from one segment of a run to the
	// next, so repetitions are compared across segments too.
	simRows *simRows
	// small shrinks sim-mm's matrices for the tier-1 tests.
	small bool
}

// simRows are the rows every later repetition of a simulator experiment
// must reproduce bit for bit: virtual time must not depend on wall time.
type simRows struct {
	fig3   []experiments.Fig3Row
	table7 []experiments.Table7Row
}

func (p params) count(perSecond float64, atLeast int) int {
	n := int(perSecond*p.scale + 0.5)
	if n < atLeast {
		n = atLeast
	}
	return n
}

// recorder is what one rank measured.
type recorder struct {
	prim, sec         []int64 // ns per primary / secondary op
	attempted, failed int64   // generated ops executed, and those that failed or mis-verified
	units             int64   // what ops_per_s counts (workloadDefs)
	names, shard0     int64   // generated store names, and how many route to shard 0
	firstErr          error
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) named(name string) {
	r.names++
	if shardmap.ShardFor(name, nShards) == 0 {
		r.shard0++
	}
}

func (r *recorder) merge(o *recorder) {
	r.prim = append(r.prim, o.prim...)
	r.sec = append(r.sec, o.sec...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.units += o.units
	r.names += o.names
	r.shard0 += o.shard0
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// counters are the public counts of every layer, read before and after
// the measured phase and subtracted. Indexed by the constants below.
type counters [nCounters]int64

const (
	cAppReadB = iota // core.Region.AppStats
	cAppWriteB
	cPcHit // fusecache.PageCache.Stats
	cPcFault
	cPcFaultB
	cPcWritebackB
	cCcHit // fusecache.ChunkCache.Stats
	cCcMiss
	cCcWait
	cCcEvict
	cCcDirtyEvict
	cCcPrefetchB
	cCcRemap
	cCcFlush
	cCcSSDReadB
	cCcSSDWriteB
	cRPCRetries // rpc.Store.Stats
	cRPCMetaRetries
	cRPCMapRetries
	cRPCFailovers
	cRPCDegradedWrites
	cPoolWaits // the public rpc.pool_wait.latency histogram
	cPoolWaitNS
	cBenBytesRead // benefactor.Store.Stats
	cBenBytesWritten
	cBenPageBytesWritten
	cBenDeletes // the public benefactor.op.delchunk.latency histogram's count
	// cRPCInFlightPeak is a high-water mark, not a count: sub keeps it.
	cRPCInFlightPeak
	nCounters
)

func (c counters) sub(before counters) counters {
	for i := range c {
		if i != cRPCInFlightPeak {
			c[i] -= before[i]
		}
	}
	return c
}

// workload is one of the five. A run is setup → run → finish; run is the
// measured phase.
type workload interface {
	setup(p params) error
	run() error
	finish() error
	recorded() *recorder
	snapshot() counters
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "seq-stream":
		return &seqStream{}, nil
	case "hot-page":
		return &hotPage{}, nil
	case "ckpt-cycle":
		return &ckptCycle{}, nil
	case "meta-churn":
		return &metaChurn{}, nil
	case "sim-mm":
		return &simMM{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Page stamps. Every 4 KiB page a rank writes starts with (magic^rank,
// page index, generation) and continues with the rank's fixed pattern, so
// any read can tell a stale, misplaced or foreign page from the right one
// by the stamp alone, and a full compare checks the rest.
const (
	stampMagic = 0x4E564D70657266 // "NVMperf"
	stampBytes = 24
)

func putStamp(page []byte, rank int, idx int64, gen uint32) {
	binary.LittleEndian.PutUint64(page[0:], stampMagic^uint64(rank))
	binary.LittleEndian.PutUint64(page[8:], uint64(idx))
	binary.LittleEndian.PutUint64(page[16:], uint64(gen))
}

func checkStamp(page []byte, rank int, idx int64, gen uint32) bool {
	return binary.LittleEndian.Uint64(page[0:]) == stampMagic^uint64(rank) &&
		binary.LittleEndian.Uint64(page[8:]) == uint64(idx) &&
		binary.LittleEndian.Uint64(page[16:]) == uint64(gen)
}

// rankExec drives one rank's region and keeps the shadow state the checks
// compare against. A rank owns its client: core.Client and PageCache are
// single-rank by contract.
type rankExec struct {
	rank    int
	c       *nvmalloc.Client
	r       *nvmalloc.Region
	rt      *rankTrace // nil when untraced
	gens    []uint32   // generation last written to each page of r
	pattern []byte     // one page of the rank's body pattern
	wbuf    []byte     // 1 MiB write scratch, bodies pre-filled
	rbuf    []byte
	rec     recorder
	freed   nvmalloc.AppStats // stats of regions this rank already freed
}

func newRankExec(rank int, c *nvmalloc.Client, rt *rankTrace) *rankExec {
	x := &rankExec{rank: rank, c: c, rt: rt, pattern: make([]byte, pageSize), wbuf: make([]byte, mib), rbuf: make([]byte, mib)}
	pr := newRng(uint64(rank), 900)
	for i := 0; i < pageSize; i += 8 {
		binary.LittleEndian.PutUint64(x.pattern[i:], pr.next())
	}
	for off := 0; off < mib; off += pageSize {
		copy(x.wbuf[off:], x.pattern)
	}
	return x
}

// malloc allocates the rank's region under a seeded name.
func (x *rankExec) malloc(name string, size int64) error {
	ctx, sp := x.rt.begin(opMalloc)
	r, err := x.c.Malloc(ctx, size, nvmalloc.WithName(name))
	x.rt.end(sp)
	if err != nil {
		return err
	}
	x.rec.named(name)
	x.r, x.gens = r, make([]uint32, size/pageSize)
	return nil
}

// write stamps the next generation into every page of [off, off+n) and
// writes them with one WriteAt.
func (x *rankExec) write(off int64, n int) error {
	for p := 0; p < n; p += pageSize {
		idx := (off + int64(p)) / pageSize
		x.gens[idx]++
		putStamp(x.wbuf[p:], x.rank, idx, x.gens[idx])
	}
	ctx, sp := x.rt.begin(opWrite)
	err := x.r.WriteAt(ctx, off, x.wbuf[:n])
	x.rt.end(sp)
	return err
}

// readCheck reads [off, off+n) of r with one ReadAt and checks every
// page's stamp against gens; full also compares the page bodies.
func (x *rankExec) readCheck(r *nvmalloc.Region, gens []uint32, off int64, n int, full bool) error {
	ctx, sp := x.rt.begin(opRead)
	err := r.ReadAt(ctx, off, x.rbuf[:n])
	x.rt.end(sp)
	if err != nil {
		return err
	}
	for p := 0; p < n; p += pageSize {
		idx := (off + int64(p)) / pageSize
		page := x.rbuf[p : p+pageSize]
		if !checkStamp(page, x.rank, idx, gens[idx]) {
			return fmt.Errorf("rank %d page %d of %s: stamp %x, want generation %d", x.rank, idx, r.Name(), page[:stampBytes], gens[idx])
		}
		if full && !bytes.Equal(page[stampBytes:], x.pattern[stampBytes:]) {
			return fmt.Errorf("rank %d page %d of %s: body differs", x.rank, idx, r.Name())
		}
	}
	return nil
}

func (x *rankExec) sync() error {
	ctx, sp := x.rt.begin(opSync)
	err := x.r.Sync(ctx)
	x.rt.end(sp)
	return err
}

// sweep reads all of r in 1 MiB ops and checks it against gens.
func (x *rankExec) sweep(r *nvmalloc.Region, gens []uint32, full bool) error {
	for off := int64(0); off < r.Size(); off += mib {
		if err := x.readCheck(r, gens, off, mib, full); err != nil {
			return err
		}
	}
	return nil
}

func (x *rankExec) free(r *nvmalloc.Region) error {
	s := r.AppStats()
	x.freed.ReadBytes += s.ReadBytes
	x.freed.WriteBytes += s.WriteBytes
	ctx, sp := x.rt.begin(opFree)
	err := r.Free(ctx)
	x.rt.end(sp)
	return err
}

// populate writes generation 1 into every page and syncs.
func (x *rankExec) populate() error {
	for off := int64(0); off < x.r.Size(); off += mib {
		if err := x.write(off, mib); err != nil {
			return err
		}
	}
	return x.sync()
}

// tcpRig is what the three region workloads share: the cluster and one
// connected client per rank.
type tcpRig struct {
	p     params
	cl    *cluster
	ranks []*rankExec
}

// boot starts the cluster and connects nr ranks with cfg.
func (g *tcpRig) boot(p params, nr int, device time.Duration, cfg nvmalloc.ConnectConfig, expectOps int) error {
	g.p = p
	cl, err := bootCluster(device, p.tracer)
	if err != nil {
		return err
	}
	g.cl = cl
	for rank := 0; rank < nr; rank++ {
		cfg.Rank = rank
		var c *nvmalloc.Client
		var rt *rankTrace
		if p.tracer != nil {
			c, err = connectTraced(cl.addrs(), cfg, p.tracer)
			rt = p.tracer.rank(expectOps)
		} else {
			c, err = nvmalloc.Connect(cl.addrs(), cfg)
		}
		if err != nil {
			return err
		}
		g.ranks = append(g.ranks, newRankExec(rank, c, rt))
	}
	return nil
}

// parallel runs fn(0..n-1) on n goroutines and joins their errors. Load is
// a closed loop: each goroutine's next op starts when its previous one
// returned, as an HPC rank blocks on each access.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// each runs fn on every rank concurrently.
func (g *tcpRig) each(fn func(x *rankExec) error) error {
	return parallel(len(g.ranks), func(i int) error { return fn(g.ranks[i]) })
}

func (g *tcpRig) recorded() *recorder {
	var r recorder
	for _, x := range g.ranks {
		r.merge(&x.rec)
	}
	return &r
}

func (g *tcpRig) snapshot() counters {
	var c counters
	for _, x := range g.ranks {
		for _, s := range []nvmalloc.AppStats{x.freed, x.r.AppStats()} {
			c[cAppReadB] += s.ReadBytes
			c[cAppWriteB] += s.WriteBytes
		}
		ps := x.c.PageCache().Stats()
		c[cPcHit] += ps.Hits
		c[cPcFault] += ps.Faults
		c[cPcFaultB] += ps.FaultBytes
		c[cPcWritebackB] += ps.WritebackBytes
		cs := x.c.ChunkCache().Stats()
		c[cCcHit] += cs.Hits
		c[cCcMiss] += cs.Misses
		c[cCcWait] += cs.Waits
		c[cCcEvict] += cs.Evictions
		c[cCcDirtyEvict] += cs.DirtyEvictions
		c[cCcPrefetchB] += cs.PrefetchBytes
		c[cCcRemap] += cs.Remaps
		c[cCcFlush] += cs.Flushes
		c[cCcSSDReadB] += cs.SSDReadBytes
		c[cCcSSDWriteB] += cs.SSDWriteBytes
		c.addStore(storeOf(x.c))
	}
	c.addBens(g.cl)
	return c
}

func (c *counters) addStore(st *rpc.Store) {
	s := st.Stats()
	c[cRPCRetries] += s.Retries
	c[cRPCMetaRetries] += s.MetaRetries
	c[cRPCMapRetries] += s.MapRetries
	c[cRPCFailovers] += s.Failovers
	c[cRPCDegradedWrites] += s.DegradedWrites
	c[cRPCInFlightPeak] = max(c[cRPCInFlightPeak], s.InFlightPeak)
	pw := st.Obs().Reg.Histogram("rpc.pool_wait.latency").Snapshot()
	c[cPoolWaits] += pw.Count
	c[cPoolWaitNS] += pw.SumNanos
}

func (c *counters) addBens(cl *cluster) {
	delHist := fmt.Sprintf("benefactor.op.%s.latency", proto.OpDeleteChunk)
	for _, bs := range cl.bens {
		s := bs.Store().Stats()
		c[cBenBytesRead] += s.BytesRead
		c[cBenBytesWritten] += s.BytesWritten
		c[cBenPageBytesWritten] += s.PageBytesWritten
		c[cBenDeletes] += bs.Obs().Reg.Histogram(delHist).Snapshot().Count
	}
}

// teardown closes the clients and the cluster, and checks the refcount
// invariant: once everything was freed no benefactor holds a byte.
func (g *tcpRig) teardown() error {
	var errs []error
	for _, x := range g.ranks {
		errs = append(errs, x.c.Close())
	}
	if used := g.cl.used(); used != 0 {
		errs = append(errs, fmt.Errorf("benefactors still hold %d bytes after every Free and DeleteCheckpoint", used))
	}
	g.cl.close()
	return errors.Join(errs...)
}

// finishRegions does the last full compare of every rank's region, frees
// it, and tears down.
func (g *tcpRig) finishRegions() error {
	err := g.each(func(x *rankExec) error {
		x.rec.attempted++
		if err := x.sweep(x.r, x.gens, true); err != nil {
			x.rec.fail(err)
		}
		return x.free(x.r)
	})
	return errors.Join(err, g.teardown())
}

// seqStream: see workloadDefs.
type seqStream struct {
	tcpRig
	wPasses, rPasses    int
	writeMBps, readMBps float64 // 2-rank aggregate over each phase's wall time
}

func (w *seqStream) setup(p params) error {
	w.wPasses = p.count(seqWritePassesPerS, 1)
	w.rPasses = p.count(seqReadPassesPerS, 1)
	opsPer := int(seqRegionBytes / mib)
	if err := w.boot(p, nRanks, 0, nvmalloc.ConnectConfig{CacheBytes: seqCacheBytes}, (2*w.wPasses+w.rPasses)*opsPer+64); err != nil {
		return err
	}
	return w.each(func(x *rankExec) error {
		if err := x.malloc(newRng(p.seed, uint64(x.rank)).name("s"), seqRegionBytes); err != nil {
			return err
		}
		if err := x.populate(); err != nil {
			return err
		}
		// Warm-up slice of the op mix: 8 MiB written+synced, 8 MiB read.
		for off := int64(0); off < 8*mib; off += mib {
			if err := x.write(off, mib); err != nil {
				return err
			}
			if err := x.sync(); err != nil {
				return err
			}
		}
		for off := int64(0); off < 8*mib; off += mib {
			if err := x.readCheck(x.r, x.gens, off, mib, false); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *seqStream) run() error {
	// Two phases with a barrier between them: all ranks write, then all
	// ranks read, so the two rates do not blur into each other.
	for _, write := range []bool{true, false} {
		passes, rate := w.rPasses, &w.readMBps
		if write {
			passes, rate = w.wPasses, &w.writeMBps
		}
		t0 := time.Now()
		err := w.each(func(x *rankExec) error {
			src := newSeqSource(w.p.seed, x.rank, write, seqRegionBytes, passes)
			var t time.Time
			for {
				o, ok := src.next()
				if !ok {
					return nil
				}
				var err error
				x.rec.attempted++
				switch o.kind {
				case opWrite:
					x.rec.units++
					t = time.Now()
					err = x.write(o.off, o.n)
				case opSync:
					err = x.sync()
					x.rec.prim = append(x.rec.prim, int64(time.Since(t)))
				case opRead:
					x.rec.units++
					t = time.Now()
					err = x.readCheck(x.r, x.gens, o.off, o.n, false)
					x.rec.sec = append(x.rec.sec, int64(time.Since(t)))
				}
				if err != nil {
					x.rec.fail(err)
				}
			}
		})
		if err != nil {
			return err
		}
		*rate = float64(nRanks*passes) * seqRegionBytes / 1e6 / time.Since(t0).Seconds()
	}
	return nil
}

func (w *seqStream) finish() error { return w.finishRegions() }

// hotPage: see workloadDefs.
type hotPage struct {
	tcpRig
	ops int
}

// hotSampleMask times one op in 16: two clock reads per op would be a
// tenth of a sub-microsecond op.
const hotSampleMask = 15

func (w *hotPage) setup(p params) error {
	w.ops = p.count(hotOpsPerS, 1000)
	// The zero ConnectConfig: 64 MiB chunk cache (the region fits), 8 MiB
	// page cache (a quarter of the region).
	if err := w.boot(p, nRanks, 0, nvmalloc.ConnectConfig{}, w.ops+w.ops/hotSyncEvery+64); err != nil {
		return err
	}
	return w.each(func(x *rankExec) error {
		if err := x.malloc(newRng(p.seed, uint64(x.rank)).name("h"), hotRegionBytes); err != nil {
			return err
		}
		if err := x.populate(); err != nil {
			return err
		}
		return w.drive(x, newHotSource(p.seed^0x5eed, x.rank, hotRegionBytes, 20000), false)
	})
}

func (w *hotPage) drive(x *rankExec, src opSource, measured bool) error {
	for i := 0; ; i++ {
		o, ok := src.next()
		if !ok {
			return nil
		}
		sample := measured && i&hotSampleMask == 0
		var t time.Time
		if sample {
			t = time.Now()
		}
		var err error
		switch o.kind {
		case opRead:
			err = x.readCheck(x.r, x.gens, o.off, o.n, false)
			if sample {
				x.rec.prim = append(x.rec.prim, int64(time.Since(t)))
			}
		case opWrite:
			err = x.write(o.off, o.n)
			if sample {
				x.rec.sec = append(x.rec.sec, int64(time.Since(t)))
			}
		case opSync:
			err = x.sync()
		}
		if measured {
			x.rec.attempted++
			if o.kind != opSync {
				x.rec.units++
			}
			if err != nil {
				x.rec.fail(err)
			}
		} else if err != nil {
			return err
		}
	}
}

func (w *hotPage) run() error {
	return w.each(func(x *rankExec) error {
		x.rec.prim = make([]int64, 0, w.ops/(hotSampleMask+1)+1)
		x.rec.sec = make([]int64, 0, w.ops/(hotSampleMask+1)/2+1)
		return w.drive(x, newHotSource(w.p.seed, x.rank, hotRegionBytes, w.ops), true)
	})
}

func (w *hotPage) finish() error { return w.finishRegions() }

// ckptCycle: see workloadDefs.
type ckptCycle struct {
	tcpRig
	steps int
	dram  []byte
	// Per kept checkpoint: its layout, and the page generations as they
	// were when it was taken — what a restore of it must read back however
	// the live variable was written since.
	infos map[string]nvmalloc.CheckpointInfo
	snaps map[string][]uint32
	last  string
}

const ckptDevice = time.Millisecond // the X25-E's ≈1 ms per 256 KiB chunk (sysprof)

func (w *ckptCycle) setup(p params) error {
	w.steps = p.count(ckptStepsPerS, ckptRestoreEvery)
	perStep := ckptChunksPer*ckptPagesPer + 3 + int(ckptRegionBytes/mib)/ckptRestoreEvery + 1
	if err := w.boot(p, 1, ckptDevice, nvmalloc.ConnectConfig{}, w.steps*perStep+256); err != nil {
		return err
	}
	w.infos, w.snaps = map[string]nvmalloc.CheckpointInfo{}, map[string][]uint32{}
	w.dram = make([]byte, ckptDRAMBytes)
	dr := newRng(p.seed, 401)
	for i := 0; i < len(w.dram); i += 8 {
		binary.LittleEndian.PutUint64(w.dram[i:], dr.next())
	}
	x := w.ranks[0]
	if err := x.malloc(newRng(p.seed, 0).name("c"), ckptRegionBytes); err != nil {
		return err
	}
	if err := x.populate(); err != nil {
		return err
	}
	// Warm-up: one full restore cycle's worth of steps, untimed.
	return w.drive(newCkptSource(p.seed^0x5eed, ckptRegionBytes, ckptRestoreEvery), false)
}

func (w *ckptCycle) drive(src opSource, measured bool) error {
	x := w.ranks[0]
	for {
		o, ok := src.next()
		if !ok {
			return nil
		}
		var err error
		switch o.kind {
		case opWrite:
			err = x.write(o.off, o.n)
		case opCheckpoint:
			x.rec.named(o.name)
			t := time.Now()
			ctx, sp := x.rt.begin(opCheckpoint)
			var info nvmalloc.CheckpointInfo
			info, err = x.c.Checkpoint(ctx, o.name, w.dram, x.r)
			x.rt.end(sp)
			if measured {
				x.rec.prim = append(x.rec.prim, int64(time.Since(t)))
			}
			if err == nil {
				w.infos[o.name], w.snaps[o.name], w.last = info, append([]uint32(nil), x.gens...), o.name
			}
		case opRestore:
			x.rec.named(o.name)
			t := time.Now()
			err = w.restore(o.src, o.name, false, func() {
				if measured {
					x.rec.sec = append(x.rec.sec, int64(time.Since(t)))
				}
			})
		case opDelCkpt:
			ctx, sp := x.rt.begin(opDelCkpt)
			err = x.c.DeleteCheckpoint(ctx, o.name)
			x.rt.end(sp)
			delete(w.infos, o.name)
			delete(w.snaps, o.name)
		}
		if measured {
			x.rec.attempted++
			if o.kind == opCheckpoint {
				x.rec.units++ // one per timestep
			}
			if err != nil {
				x.rec.fail(err)
			}
		} else if err != nil {
			return err
		}
	}
}

// restore derives a region from checkpoint src, reads all of it back
// against the checkpoint-time generations, calls readBack, and frees it.
func (w *ckptCycle) restore(src, name string, full bool, readBack func()) error {
	info, ok := w.infos[src]
	if !ok || len(info.Regions) == 0 {
		// Also what a restore of a checkpoint that failed comes to: the
		// failure is counted, and the run goes on to print its result.
		return fmt.Errorf("restore of checkpoint %q, which was not taken or holds no region", src)
	}
	x := w.ranks[0]
	ctx, sp := x.rt.begin(opRestore)
	rr, err := x.c.RestoreRegion(ctx, src, info.Regions[0], name)
	x.rt.end(sp)
	if err != nil {
		return err
	}
	serr := x.sweep(rr, w.snaps[src], full)
	readBack()
	return errors.Join(serr, x.free(rr))
}

func (w *ckptCycle) run() error {
	return w.drive(newCkptSource(w.p.seed, ckptRegionBytes, w.steps), true)
}

func (w *ckptCycle) finish() error {
	x := w.ranks[0]
	x.rec.attempted++
	// Full compare of the newest checkpoint, then delete what is kept.
	if err := w.restore(w.last, newRng(w.p.seed, 402).name("r"), true, func() {}); err != nil {
		x.rec.fail(err)
	}
	var errs []error
	for name := range w.infos {
		errs = append(errs, x.c.DeleteCheckpoint(nil, name))
	}
	return errors.Join(append(errs, w.finishRegions())...)
}

// metaChurn: see workloadDefs.
type metaChurn struct {
	p      params
	cl     *cluster
	st     *rpc.Store
	cycles int
	recs   [nRanks]recorder
	rts    [nRanks]*rankTrace
	last   [nRanks]string
}

func (w *metaChurn) setup(p params) error {
	w.p = p
	w.cycles = p.count(metaCyclesPerS, 10)
	cl, err := bootCluster(0, p.tracer)
	if err != nil {
		return err
	}
	w.cl = cl
	if w.st, err = rpc.OpenWith(cl.addrs(), rpc.Options{}); err != nil {
		return err
	}
	for g := range w.rts {
		if p.tracer != nil {
			w.rts[g] = p.tracer.rank(4*w.cycles + 64)
		}
	}
	return parallel(nRanks, func(g int) error { return w.drive(g, newMetaSource(p.seed^0x5eed, g, 200), false) })
}

// raw times one raw rpc.Store call. These calls take no ctx, and the call
// is itself the rpc boundary, so a traced run records it as a root span
// with one S1 child over the same interval.
func (w *metaChurn) raw(g int, k opKind, sk s1Kind, fn func() error) (time.Duration, error) {
	_, sp := w.rts[g].begin(k)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	if sp != nil {
		w.rts[g].end(sp)
		w.p.tracer.record(span{parent: sp.id, kind: uint8(sk), ben: -1, start: sp.start, end: sp.end})
	}
	return d, err
}

func (w *metaChurn) drive(g int, src opSource, measured bool) error {
	rec := &w.recs[g]
	for {
		o, ok := src.next()
		if !ok {
			return nil
		}
		var err error
		var d time.Duration
		switch o.kind {
		case opCreate:
			rec.named(o.name)
			w.last[g] = o.name
			d, err = w.raw(g, opCreate, s1Create, func() error { return w.st.Create(o.name, int64(o.n)) })
			if measured {
				rec.prim = append(rec.prim, int64(d))
			}
		case opStat:
			var fi proto.FileInfo
			_, err = w.raw(g, opStat, s1Lookup, func() (e error) { fi, e = w.st.Stat(o.name); return })
			if err == nil {
				err = checkMetaFile(fi, o.name)
			}
		case opDelete:
			d, err = w.raw(g, opDelete, s1Delete, func() error { return w.st.Delete(o.name) })
			if measured {
				rec.sec = append(rec.sec, int64(d))
			}
		}
		if measured {
			rec.attempted++
			rec.units++
			if err != nil {
				rec.fail(err)
			}
		} else if err != nil {
			return err
		}
	}
}

// checkMetaFile checks what Stat returned for a meta-churn file: the
// reserved size, 3 chunks, and `replication` distinct copies of each.
func checkMetaFile(fi proto.FileInfo, name string) error {
	if fi.Name != name || fi.Size != metaFileBytes || len(fi.Chunks) != 3 || len(fi.Replicas) != 3 {
		return fmt.Errorf("stat %s: got %q, %d bytes, %d chunks, %d replica sets", name, fi.Name, fi.Size, len(fi.Chunks), len(fi.Replicas))
	}
	for i, reps := range fi.Replicas {
		if len(reps) != replication || reps[0] != fi.Chunks[i] || reps[0].Benefactor == reps[1].Benefactor {
			return fmt.Errorf("stat %s: chunk %d replicas %v", name, i, reps)
		}
	}
	return nil
}

func (w *metaChurn) run() error {
	return parallel(nRanks, func(g int) error {
		w.recs[g].prim = make([]int64, 0, w.cycles)
		w.recs[g].sec = make([]int64, 0, w.cycles)
		return w.drive(g, newMetaSource(w.p.seed, g, w.cycles), true)
	})
}

func (w *metaChurn) finish() error {
	// The last file each goroutine deleted must be gone.
	for g := range w.recs {
		w.recs[g].attempted++
		if _, err := w.st.Stat(w.last[g]); !errors.Is(err, proto.ErrNoSuchFile) {
			w.recs[g].fail(fmt.Errorf("stat of deleted %s: %v, want ErrNoSuchFile", w.last[g], err))
		}
	}
	err := w.st.Close()
	if used := w.cl.used(); used != 0 {
		err = errors.Join(err, fmt.Errorf("benefactors hold %d bytes after meta-churn", used))
	}
	w.cl.close()
	return err
}

func (w *metaChurn) recorded() *recorder {
	var r recorder
	for g := range w.recs {
		r.merge(&w.recs[g])
	}
	return &r
}

func (w *metaChurn) snapshot() counters {
	var c counters
	c.addStore(w.st)
	c.addBens(w.cl)
	return c
}

// simMM: see workloadDefs.
type simMM struct {
	p        params
	opts     experiments.Opts
	rt       *rankTrace
	rec      recorder
	rows     *simRows
	virtualS float64
}

// simLSSD is the configuration whose virtual total sim.virtual_total_s
// reports.
const simLSSD = "L-SSD(8:16:16)"

func (w *simMM) setup(p params) error {
	w.p = p
	w.opts = experiments.Quick()
	if p.small {
		w.opts.MatrixN = 256 // N² · 8 B = 512 KiB matrices: a fraction of a second
	}
	if w.rows = p.simRows; w.rows == nil {
		w.rows = &simRows{}
	}
	if p.tracer != nil {
		w.rt = p.tracer.rank(16)
	}
	// Warm-up: one untimed Table VII run.
	return w.table7()
}

func (w *simMM) fig3() error {
	rows, _, err := experiments.Fig3(w.opts)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.Config == simLSSD {
			w.virtualS = r.Total.Seconds()
		}
	}
	switch {
	case w.virtualS == 0:
		return fmt.Errorf("fig3 has no %s row", simLSSD)
	case w.rows.fig3 == nil:
		w.rows.fig3 = rows
	case !reflect.DeepEqual(rows, w.rows.fig3):
		return fmt.Errorf("fig3 rows differ between repetitions: %v vs %v", rows, w.rows.fig3)
	}
	return nil
}

func (w *simMM) table7() error {
	rows, _, err := experiments.Table7(w.opts)
	switch {
	case err != nil:
		return err
	case w.rows.table7 == nil:
		w.rows.table7 = rows
	case !reflect.DeepEqual(rows, w.rows.table7):
		return fmt.Errorf("table7 rows differ between repetitions: %v vs %v", rows, w.rows.table7)
	}
	return nil
}

func (w *simMM) run() error {
	src := &simSource{fig3: w.p.count(simFig3RepsPerS, 1), table7: w.p.count(simTable7RepsPerS, 1)}
	for {
		o, ok := src.next()
		if !ok {
			return nil
		}
		w.rec.attempted++
		w.rec.units++
		_, sp := w.rt.begin(o.kind)
		t := time.Now()
		var err error
		switch o.kind {
		case opFig3:
			err = w.fig3()
			w.rec.prim = append(w.rec.prim, int64(time.Since(t)))
		case opTable7:
			err = w.table7()
			w.rec.sec = append(w.rec.sec, int64(time.Since(t)))
		}
		w.rt.end(sp)
		if err != nil {
			w.rec.fail(err)
		}
	}
}

func (w *simMM) finish() error       { return nil }
func (w *simMM) recorded() *recorder { return &w.rec }
func (w *simMM) snapshot() counters  { return counters{} }
