package workloads

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"nvmalloc/internal/core"
	"nvmalloc/internal/mpi"
	"nvmalloc/internal/sim"
	"nvmalloc/internal/simtime"
)

// SortParams configures one parallel-quicksort run (Table VI).
type SortParams struct {
	// TotalBytes is the dataset size (int64 elements).
	TotalBytes int64
	// DRAMShare is the fraction of each rank's partition held in DRAM; the
	// remainder lives on the NVM store via ssdmalloc. The paper's
	// L-SSD(8:16:16) loads 100 of 200 GB in DRAM (0.5); R-SSD(8:8:8)
	// loads 50 of 200 GB (0.25).
	DRAMShare float64
	// TwoPass runs the DRAM-only out-of-core baseline: the dataset is
	// split in two halves, each sorted in its own pass with interim runs
	// staged on the PFS, then merged through the PFS (the program change
	// the paper had to make for DRAM(8:16:0)).
	TwoPass bool
	// ScratchBytes is the in-DRAM sorting granule of the out-of-core local
	// quicksort.
	ScratchBytes int64
	// BlockBytes is the exchange streaming granule.
	BlockBytes int64
	Verify     bool
	Seed       uint64
}

// SortPhases breaks one sample-sort pass down.
type SortPhases struct {
	LoadInput time.Duration
	LocalSort time.Duration
	Splitters time.Duration
	Exchange  time.Duration // streaming exchange + P-way merge + output write
}

// SortResult reports one run.
type SortResult struct {
	Params   SortParams
	Config   string
	Elapsed  time.Duration
	Passes   int
	Verified bool
	PFSBytes int64
	// Phases reports the last pass's breakdown; MergeTime is the two-pass
	// baseline's PFS merge.
	Phases    SortPhases
	MergeTime time.Duration
}

// RunSort executes the parallel quicksort on machine m.
func RunSort(m *sim.Machine, prm SortParams) (SortResult, error) {
	if prm.ScratchBytes == 0 {
		// A generous in-DRAM sorting granule keeps the out-of-core
		// quicksort's recursion shallow: most partitions hit the base case
		// after one pass, so the NVM-resident half streams through the
		// store only ~2x.
		prm.ScratchBytes = 512 << 10
	}
	if prm.BlockBytes == 0 {
		prm.BlockBytes = 64 << 10
	}
	cfg := m.Cfg
	res := SortResult{Params: prm, Config: cfg.String(), Passes: 1}
	if prm.TwoPass {
		res.Passes = 2
	}
	elems := prm.TotalBytes / 8
	if elems%int64(cfg.Ranks()) != 0 {
		return res, fmt.Errorf("workloads: %d elements not divisible by %d ranks", elems, cfg.Ranks())
	}

	// Feasibility: a single-pass DRAM-only sort must fit the aggregate
	// memory; this is what forces the two-pass baseline.
	if !prm.TwoPass {
		dramPerNode := int64(float64(prm.TotalBytes)*prm.DRAMShare) / int64(cfg.ComputeNodes)
		if dramPerNode > m.Prof.AvailableDRAM() {
			return res, fmt.Errorf("workloads: %s infeasible: %d B of DRAM-resident data per node, %d available",
				cfg, dramPerNode, m.Prof.AvailableDRAM())
		}
	}

	// The unsorted input pre-exists on the PFS.
	input := genInt64s(elems, prm.Seed)
	m.PFS.Preload("sort/input", input)

	start := m.Eng.Now()
	pfsBefore := m.PFS.Stats()
	var err error
	if prm.TwoPass {
		err = runSortTwoPass(m, prm, &res)
	} else {
		err = runSortPass(m, prm, "sort/input", 0, elems, "sort/output", &res.Phases)
	}
	if err != nil {
		return res, err
	}
	res.Elapsed = m.Eng.Now().Sub(start)
	pfsAfter := m.PFS.Stats()
	res.PFSBytes = (pfsAfter.BytesRead - pfsBefore.BytesRead) + (pfsAfter.BytesWritten - pfsBefore.BytesWritten)

	if prm.Verify {
		out, err := m.PFS.Snapshot("sort/output")
		if err != nil {
			return res, err
		}
		if err := verifySorted(input, out); err != nil {
			return res, err
		}
		res.Verified = true
	}
	return res, nil
}

// runSortTwoPass is the DRAM(8:16:0) baseline: sort each half into a PFS
// run, then merge the runs through a single PFS stream.
func runSortTwoPass(m *sim.Machine, prm SortParams, res *SortResult) error {
	elems := prm.TotalBytes / 8
	half := elems / 2
	if err := runSortPass(m, prm, "sort/input", 0, half, "sort/run1", &res.Phases); err != nil {
		return err
	}
	if err := runSortPass(m, prm, "sort/input", half, elems-half, "sort/run2", &res.Phases); err != nil {
		return err
	}
	// Merge pass: the master streams both runs from the PFS and writes the
	// merged output back — the single-client staging that makes this mode
	// pay (Table VI).
	var mergeErr error
	mergeStart := m.Eng.Now()
	m.Eng.Go("merge", func(p *simtime.Proc) {
		mergeErr = mergeRuns(m, p, "sort/run1", "sort/run2", "sort/output", prm.BlockBytes)
	})
	m.Eng.Run()
	res.MergeTime = m.Eng.Now().Sub(mergeStart)
	return mergeErr
}

// runSortPass sample-sorts elems elements starting at inputOff of input
// into output: local out-of-core quicksort, splitter selection, and a
// streaming exchange with P-way merges at the receivers.
func runSortPass(m *sim.Machine, prm SortParams, input string, inputOff, elems int64, output string, phases *SortPhases) error {
	cfg := m.Cfg
	P := cfg.Ranks()
	per := elems / int64(P)
	comm := mpi.New(m.Eng, m.Cluster.Net, cfg)
	var runErr error

	// Cross-rank coordination state (the engine serializes procs, so plain
	// shared slices are safe).
	counts := make([][]int64, P) // counts[src][dst]
	offsets := make([]int64, P)  // output offset per destination bucket
	var marks []simtime.Time
	mark := func(p *simtime.Proc, rank int) {
		comm.Barrier(p, rank)
		if rank == 0 {
			marks = append(marks, p.Now())
		}
	}

	mpi.RunRanks(m.Eng, cfg, func(p *simtime.Proc, rank int) {
		c := m.NewClient(rank)
		fail := func(e error) {
			if runErr == nil {
				runErr = fmt.Errorf("rank %d: %w", rank, e)
			}
		}
		mark(p, rank) // t0
		part, err := allocPartition(p, c, prm, rank, per*8)
		if err != nil {
			fail(err)
			return
		}
		// Load my slice of the input.
		if err := pfsToBuffer(m, p, input, (inputOff+int64(rank)*per)*8, part, prm.BlockBytes); err != nil {
			fail(err)
			return
		}
		mark(p, rank) // input loaded
		// Local out-of-core quicksort.
		if err := quicksortBuffer(p, c, part, 0, per, prm.ScratchBytes); err != nil {
			fail(err)
			return
		}
		mark(p, rank) // locally sorted
		// Splitters: every rank contributes P-1 local quantiles; the
		// master merges them and broadcasts the global splitters.
		v := core.Int64s(part)
		locals := make([]int64, 0, P-1)
		for q := 1; q < P; q++ {
			x, err := v.Load(p, per*int64(q)/int64(P))
			if err != nil {
				fail(err)
				return
			}
			locals = append(locals, x)
		}
		all := comm.Gatherv(p, rank, 0, int64sToBytes(locals))
		var splitters []int64
		if rank == 0 {
			var pool []int64
			for _, b := range all {
				pool = append(pool, bytesToInt64s(b)...)
			}
			sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
			splitters = make([]int64, P-1)
			for q := 1; q < P; q++ {
				splitters[q-1] = pool[len(pool)*q/P]
			}
			comm.Bcast(p, rank, 0, int64sToBytes(splitters))
		} else {
			splitters = bytesToInt64s(comm.Bcast(p, rank, 0, nil))
		}
		// Per-destination ranges in my sorted partition (binary search).
		bounds := make([]int64, P+1)
		bounds[P] = per
		for d := 1; d < P; d++ {
			b, err := lowerBound(p, v, per, splitters[d-1])
			if err != nil {
				fail(err)
				return
			}
			bounds[d] = b
		}
		myCounts := make([]int64, P)
		for d := 0; d < P; d++ {
			myCounts[d] = bounds[d+1] - bounds[d]
		}
		counts[rank] = myCounts
		mark(p, rank) // splitters agreed
		// Master computes bucket output offsets.
		if rank == 0 {
			var off int64
			for d := 0; d < P; d++ {
				offsets[d] = off
				for s := 0; s < P; s++ {
					off += counts[s][d]
				}
			}
			m.PFS.Create(p, output)
		}
		comm.Barrier(p, rank)

		// Exchange: a sender subproc streams my ranges to every
		// destination while this proc merges the P incoming streams and
		// writes my bucket to the PFS.
		sendDone := &simtime.WaitGroup{}
		sendDone.Add(1)
		sender := m.Eng.Go(fmt.Sprintf("sort-send r%d", rank), func(sp *simtime.Proc) {
			blockElems := prm.BlockBytes / 8
			buf := make([]int64, blockElems)
			for d := 0; d < P; d++ {
				for i := bounds[d]; i < bounds[d+1]; i += blockElems {
					n := min(blockElems, bounds[d+1]-i)
					if err := v.LoadVec(sp, i, buf[:n]); err != nil {
						fail(err)
						return
					}
					comm.Send(sp, rank, d, 1000, int64sToBytes(buf[:n]))
				}
			}
		})
		sender.OnDone(func() { sendDone.Done(sender) })

		if err := mergeIncoming(m, p, comm, rank, counts, offsets[rank], output, prm.BlockBytes); err != nil {
			fail(err)
			return
		}
		sendDone.Wait(p)
		mark(p, rank) // exchange + output done
		part.Free(p)
	})
	m.Eng.Run()
	if runErr == nil && len(marks) == 5 && phases != nil {
		phases.LoadInput = marks[1].Sub(marks[0])
		phases.LocalSort = marks[2].Sub(marks[1])
		phases.Splitters = marks[3].Sub(marks[2])
		phases.Exchange = marks[4].Sub(marks[3])
	}
	return runErr
}

// allocPartition builds one rank's partition buffer: a DRAM share and an
// NVM share concatenated.
func allocPartition(p *simtime.Proc, c *core.Client, prm SortParams, rank int, size int64) (core.Buffer, error) {
	dram := int64(float64(size) * prm.DRAMShare)
	dram -= dram % 8
	if dram >= size || prm.DRAMShare >= 1 {
		return core.NewDRAM(c.Node(), fmt.Sprintf("sort.r%d", rank), size)
	}
	d, err := core.NewDRAM(c.Node(), fmt.Sprintf("sort.dram.r%d", rank), dram)
	if err != nil {
		return nil, err
	}
	nv, err := c.Malloc(p, size-dram, core.WithName(fmt.Sprintf("sort.nvm.r%d", rank)))
	if err != nil {
		return nil, err
	}
	return core.Concat(fmt.Sprintf("sort.r%d", rank), d, nv), nil
}

// pfsToBuffer streams a PFS range into a buffer.
func pfsToBuffer(m *sim.Machine, p *simtime.Proc, name string, off int64, dst core.Buffer, blockBytes int64) error {
	buf := make([]byte, blockBytes)
	for o := int64(0); o < dst.Size(); o += blockBytes {
		n := min(blockBytes, dst.Size()-o)
		if err := m.PFS.ReadAt(p, name, off+o, buf[:n]); err != nil {
			return err
		}
		if err := dst.WriteAt(p, o, buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// mergeIncoming P-way-merges the incoming sorted streams for this rank's
// bucket and writes the result to the PFS at the bucket's offset.
func mergeIncoming(m *sim.Machine, p *simtime.Proc, comm *mpi.Comm, rank int, counts [][]int64, outOff int64, output string, blockBytes int64) error {
	P := comm.Ranks()
	blockElems := blockBytes / 8
	srcs := make([]*mergeSrc, 0, P)
	for s := 0; s < P; s++ {
		if counts[s][rank] == 0 {
			continue
		}
		srcs = append(srcs, &mergeSrc{src: s, remaining: counts[s][rank]})
	}
	h := &mergeHeap{}
	for _, ms := range srcs {
		if err := ms.refill(p, comm, rank); err != nil {
			return err
		}
		heap.Push(h, ms)
	}
	out := make([]int64, 0, blockElems)
	written := outOff * 8
	flush := func() error {
		if len(out) == 0 {
			return nil
		}
		if err := m.PFS.WriteAt(p, output, written, int64sToBytes(out)); err != nil {
			return err
		}
		written += int64(len(out) * 8)
		out = out[:0]
		return nil
	}
	node := m.Node(rank)
	for h.Len() > 0 {
		ms := (*h)[0]
		out = append(out, ms.head())
		if err := ms.advance(p, comm, rank); err != nil {
			return err
		}
		if ms.done() {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
		if int64(len(out)) == blockElems {
			node.Compute(p, 2*float64(len(out))*math.Log2(float64(len(srcs)+1)))
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// mergeSrc is one incoming stream of the P-way merge.
type mergeSrc struct {
	src       int
	remaining int64
	block     []int64
	pos       int
}

func (ms *mergeSrc) refill(p *simtime.Proc, comm *mpi.Comm, rank int) error {
	ms.block = bytesToInt64s(comm.Recv(p, ms.src, rank, 1000))
	ms.pos = 0
	if len(ms.block) == 0 {
		return fmt.Errorf("workloads: empty exchange block from rank %d", ms.src)
	}
	return nil
}

func (ms *mergeSrc) head() int64 { return ms.block[ms.pos] }
func (ms *mergeSrc) done() bool  { return ms.remaining == 0 }

func (ms *mergeSrc) advance(p *simtime.Proc, comm *mpi.Comm, rank int) error {
	ms.pos++
	ms.remaining--
	if ms.remaining > 0 && ms.pos == len(ms.block) {
		return ms.refill(p, comm, rank)
	}
	return nil
}

type mergeHeap []*mergeSrc

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return h[i].head() < h[j].head() }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(*mergeSrc)) }
func (h *mergeHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// mergeRuns streams two sorted PFS runs into a merged output through a
// single client (the master).
func mergeRuns(m *sim.Machine, p *simtime.Proc, run1, run2, output string, blockBytes int64) error {
	m.PFS.Create(p, output)
	s1, err := m.PFS.Size(run1)
	if err != nil {
		return err
	}
	s2, err := m.PFS.Size(run2)
	if err != nil {
		return err
	}
	r1 := &runReader{m: m, p: p, name: run1, size: s1, block: blockBytes}
	r2 := &runReader{m: m, p: p, name: run2, size: s2, block: blockBytes}
	if err := r1.refill(); err != nil {
		return err
	}
	if err := r2.refill(); err != nil {
		return err
	}
	out := make([]int64, 0, blockBytes/8)
	var written int64
	node := m.Node(0)
	flush := func() error {
		if len(out) == 0 {
			return nil
		}
		node.Compute(p, 2*float64(len(out)))
		if err := m.PFS.WriteAt(p, output, written, int64sToBytes(out)); err != nil {
			return err
		}
		written += int64(len(out) * 8)
		out = out[:0]
		return nil
	}
	for !r1.done() || !r2.done() {
		var v int64
		switch {
		case r1.done():
			v = r2.take()
		case r2.done():
			v = r1.take()
		case r1.head() <= r2.head():
			v = r1.take()
		default:
			v = r2.take()
		}
		out = append(out, v)
		if int64(len(out)) == blockBytes/8 {
			if err := flush(); err != nil {
				return err
			}
		}
		if err := r1.err; err != nil {
			return err
		}
		if err := r2.err; err != nil {
			return err
		}
	}
	return flush()
}

// runReader streams one sorted run from the PFS.
type runReader struct {
	m     *sim.Machine
	p     *simtime.Proc
	name  string
	size  int64
	block int64
	off   int64
	buf   []int64
	pos   int
	err   error
}

func (r *runReader) refill() error {
	n := min(r.block, r.size-r.off)
	if n <= 0 {
		r.buf = nil
		r.pos = 0
		return nil
	}
	raw := make([]byte, n)
	if err := r.m.PFS.ReadAt(r.p, r.name, r.off, raw); err != nil {
		return err
	}
	r.off += n
	r.buf = bytesToInt64s(raw)
	r.pos = 0
	return nil
}

func (r *runReader) done() bool  { return r.pos >= len(r.buf) }
func (r *runReader) head() int64 { return r.buf[r.pos] }

func (r *runReader) take() int64 {
	v := r.buf[r.pos]
	r.pos++
	if r.pos >= len(r.buf) && r.off < r.size {
		if err := r.refill(); err != nil {
			r.err = err
		}
	}
	return v
}

// quicksortBuffer sorts elements [lo, lo+n) of an arbitrary Buffer with an
// out-of-core quicksort: segments that fit the DRAM scratch are loaded,
// sorted in memory, and stored back; larger segments are partitioned
// in place with two block cursors (sequential access — the pattern that
// keeps the NVM cache effective).
func quicksortBuffer(p *simtime.Proc, c *core.Client, b core.Buffer, lo, n, scratchBytes int64) error {
	v := core.Int64s(b)
	scratchElems := scratchBytes / 8
	node := c.Node()
	var rec func(lo, hi int64) error // [lo, hi)
	rec = func(lo, hi int64) error {
		n := hi - lo
		if n <= 1 {
			return nil
		}
		if n <= scratchElems {
			s := make([]int64, n)
			if err := v.LoadVec(p, lo, s); err != nil {
				return err
			}
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			node.Compute(p, 2*float64(n)*math.Log2(float64(n)+1))
			return v.StoreVec(p, lo, s)
		}
		// Median-of-three pivot (a value present in the segment, which the
		// Hoare loops below rely on).
		a, err := v.Load(p, lo)
		if err != nil {
			return err
		}
		bmid, err := v.Load(p, lo+n/2)
		if err != nil {
			return err
		}
		cend, err := v.Load(p, hi-1)
		if err != nil {
			return err
		}
		pivot := median3(a, bmid, cend)
		// Hoare partition over a two-slot block cache: the scans are
		// sequential (forward from lo, backward from hi), which is exactly
		// the SSD-friendly pattern the paper credits for quicksort working
		// out-of-core. One shared cache keeps the converging cursors
		// coherent when they meet inside the same block.
		bc := newBlkCache(v, scratchElems/4)
		i, j := lo-1, hi
		for {
			for {
				i++
				x, err := bc.load(p, i)
				if err != nil {
					return err
				}
				if x >= pivot {
					break
				}
			}
			for {
				j--
				x, err := bc.load(p, j)
				if err != nil {
					return err
				}
				if x <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			xi, err := bc.load(p, i)
			if err != nil {
				return err
			}
			xj, err := bc.load(p, j)
			if err != nil {
				return err
			}
			if err := bc.store(p, i, xj); err != nil {
				return err
			}
			if err := bc.store(p, j, xi); err != nil {
				return err
			}
		}
		if err := bc.flushAll(p); err != nil {
			return err
		}
		node.Compute(p, 2*float64(n))
		if err := rec(lo, j+1); err != nil {
			return err
		}
		return rec(j+1, hi)
	}
	return rec(lo, lo+n)
}

// blkCache is a two-slot write-back block cache over an Int64View: one
// slot tracks the forward partition cursor, the other the backward one,
// and when the cursors converge into a single block they share a slot, so
// no update is ever lost.
type blkCache struct {
	v     *core.Int64View
	size  int64
	slots [2]*blkSlot
	clock int
}

type blkSlot struct {
	base  int64
	buf   []int64
	dirty bool
	used  int
}

func newBlkCache(v *core.Int64View, size int64) *blkCache {
	if size < 64 {
		size = 64
	}
	return &blkCache{v: v, size: size}
}

func (bc *blkCache) slot(p *simtime.Proc, i int64) (*blkSlot, error) {
	base := i - i%bc.size
	bc.clock++
	var victim *blkSlot
	for _, s := range bc.slots {
		if s != nil && s.base == base {
			s.used = bc.clock
			return s, nil
		}
	}
	for idx, s := range bc.slots {
		if s == nil {
			victim = &blkSlot{}
			bc.slots[idx] = victim
			break
		}
		if victim == nil || s.used < victim.used {
			victim = s
		}
	}
	if victim.buf != nil && victim.dirty {
		if err := bc.v.StoreVec(p, victim.base, victim.buf); err != nil {
			return nil, err
		}
	}
	end := base + bc.size
	if end > bc.v.Len() {
		end = bc.v.Len()
	}
	victim.buf = make([]int64, end-base)
	if err := bc.v.LoadVec(p, base, victim.buf); err != nil {
		return nil, err
	}
	victim.base = base
	victim.dirty = false
	victim.used = bc.clock
	return victim, nil
}

func (bc *blkCache) load(p *simtime.Proc, i int64) (int64, error) {
	s, err := bc.slot(p, i)
	if err != nil {
		return 0, err
	}
	return s.buf[i-s.base], nil
}

func (bc *blkCache) store(p *simtime.Proc, i int64, x int64) error {
	s, err := bc.slot(p, i)
	if err != nil {
		return err
	}
	s.buf[i-s.base] = x
	s.dirty = true
	return nil
}

func (bc *blkCache) flushAll(p *simtime.Proc) error {
	for _, s := range bc.slots {
		if s != nil && s.dirty {
			if err := bc.v.StoreVec(p, s.base, s.buf); err != nil {
				return err
			}
			s.dirty = false
		}
	}
	return nil
}

func median3(a, b, c int64) int64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// lowerBound returns the first index in the sorted view whose value is >=
// x.
func lowerBound(p *simtime.Proc, v *core.Int64View, n int64, x int64) (int64, error) {
	lo, hi := int64(0), n
	for lo < hi {
		mid := (lo + hi) / 2
		val, err := v.Load(p, mid)
		if err != nil {
			return 0, err
		}
		if val < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// genInt64s produces a deterministic pseudo-random dataset.
func genInt64s(n int64, seed uint64) []byte {
	out := make([]byte, n*8)
	x := seed*2862933555777941757 + 3037000493
	for i := int64(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(out[i*8:], x)
	}
	return out
}

// verifySorted checks that out is a sorted permutation of in (count, sum
// and xor fingerprints plus full order check).
func verifySorted(in, out []byte) error {
	if len(in) != len(out) {
		return fmt.Errorf("workloads: sort output %d bytes, want %d", len(out), len(in))
	}
	var sumIn, sumOut, xorIn, xorOut uint64
	var prev int64 = math.MinInt64
	for i := 0; i+8 <= len(in); i += 8 {
		a := binary.LittleEndian.Uint64(in[i:])
		b := binary.LittleEndian.Uint64(out[i:])
		sumIn += a
		sumOut += b
		xorIn ^= a
		xorOut ^= b
		if v := int64(b); v < prev {
			return fmt.Errorf("workloads: output not sorted at element %d", i/8)
		} else {
			prev = v
		}
	}
	if sumIn != sumOut || xorIn != xorOut {
		return fmt.Errorf("workloads: output is not a permutation of the input")
	}
	return nil
}

func int64sToBytes(s []int64) []byte {
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

func bytesToInt64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
