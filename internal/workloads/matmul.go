package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"nvmalloc/internal/core"
	"nvmalloc/internal/mpi"
	"nvmalloc/internal/sim"
	"nvmalloc/internal/simtime"
)

// MMParams configures one matrix-multiplication run (C = A × B, n×n
// float64 matrices, BLOCK row distribution of A and C, B fully replicated
// — the paper's §IV-B2 kernel).
type MMParams struct {
	N int // matrix dimension
	// PlaceB chooses B's home: DRAM (baseline) or the NVM store.
	PlaceB Placement
	// SharedB maps B to one backing file per node (the paper's "-S" mode)
	// instead of one file per process ("-I").
	SharedB bool
	// ColumnMajorB accesses B column-by-column during compute (Fig. 5).
	ColumnMajorB bool
	// Tile is the loop-tiling size in elements (Table V). 0 picks N/8.
	Tile int
	// BcastBlockBytes is the broadcast pipelining granularity.
	BcastBlockBytes int64
	// RealCompute performs the actual floating-point arithmetic (tests at
	// small N); otherwise arithmetic time is charged without executing
	// n³ multiplies.
	RealCompute bool
	// Verify checks C against a reference product (requires RealCompute).
	Verify bool
}

// MMStages breaks the runtime into the paper's five stages (Fig. 3).
type MMStages struct {
	InputSplitA time.Duration
	InputB      time.Duration
	BroadcastB  time.Duration
	Computing   time.Duration
	CollectC    time.Duration
}

// Total sums the stages.
func (s MMStages) Total() time.Duration {
	return s.InputSplitA + s.InputB + s.BroadcastB + s.Computing + s.CollectC
}

// MMResult reports one run.
type MMResult struct {
	Params   MMParams
	Config   string
	Stages   MMStages
	Total    time.Duration
	Verified bool
	// Traffic during the compute stage at the three levels of Table IV.
	AppBytesToB   int64
	FuseReadBytes int64
	SSDReadBytes  int64
}

// matBytes generates a deterministic n×n matrix as little-endian float64
// bytes with small integer entries (exact arithmetic for verification).
func matBytes(n int, seed uint64) []byte {
	out := make([]byte, n*n*8)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := float64(int64((seed+uint64(i)*2654435761+uint64(j)*40503)%7) - 3)
			binary.LittleEndian.PutUint64(out[(i*n+j)*8:], math.Float64bits(v))
		}
	}
	return out
}

// RunMM executes the five-stage MPI matrix multiplication on machine m.
func RunMM(m *sim.Machine, prm MMParams) (MMResult, error) {
	cfg := m.Cfg
	ranks := cfg.Ranks()
	if prm.N%ranks != 0 {
		return MMResult{}, fmt.Errorf("workloads: N=%d not divisible by %d ranks", prm.N, ranks)
	}
	if prm.Tile == 0 {
		prm.Tile = prm.N / 8
	}
	if prm.N%prm.Tile != 0 {
		return MMResult{}, fmt.Errorf("workloads: N=%d not divisible by tile %d", prm.N, prm.Tile)
	}
	if prm.BcastBlockBytes == 0 {
		// Fine-grained blocks keep the broadcast tree pipelined: the
		// pipeline fill cost is depth×block, so blocks must be small
		// relative to the matrix.
		prm.BcastBlockBytes = 2 * m.Prof.ChunkSize
	}
	if prm.Verify && !prm.RealCompute {
		return MMResult{}, fmt.Errorf("workloads: Verify requires RealCompute")
	}

	n := prm.N
	rowsPer := n / ranks

	// Feasibility: will the per-node DRAM demand fit? This is the check
	// that forces the paper's DRAM-only runs down to 2 processes per node
	// (and rules DRAM-only out entirely for the 8 GB problem of Fig. 6).
	perRank := int64(2 * rowsPer * n * 8) // A and C slices
	if prm.PlaceB == InDRAM {
		perRank += int64(n * n * 8) // a full private copy of B
	}
	demand := int64(cfg.ProcsPerNode) * perRank
	if demand > m.Prof.AvailableDRAM() {
		return MMResult{}, fmt.Errorf("workloads: %s infeasible: %d B/node needed, %d available (out of memory)",
			cfg, demand, m.Prof.AvailableDRAM())
	}

	comm := mpi.New(m.Eng, m.Cluster.Net, cfg)

	// Inputs pre-exist on the PFS (setup, untimed). For the column-major
	// access study the B file is laid out transposed — the paper's
	// "effectively altering the data placement strategy" — so the same
	// tiled kernel produces strided instead of sequential store accesses.
	aBytes := matBytes(n, 1)
	bBytes := matBytes(n, 2)
	m.PFS.Preload("mm/A.in", aBytes)
	if prm.ColumnMajorB {
		m.PFS.Preload("mm/B.in", transpose(n, bBytes))
	} else {
		m.PFS.Preload("mm/B.in", bBytes)
	}

	res := MMResult{Params: prm, Config: cfg.String(), Verified: prm.Verify}
	var runErr error
	stageMarks := make([]simtime.Time, 0, 6)
	mark := func(p *simtime.Proc, rank int) {
		comm.Barrier(p, rank)
		if rank == 0 {
			stageMarks = append(stageMarks, p.Now())
		}
	}
	var fuseBefore, ssdBefore int64
	appToB := make([]int64, ranks)

	mpi.RunRanks(m.Eng, cfg, func(p *simtime.Proc, rank int) {
		c := m.NewClient(rank)
		node := c.Node()
		fail := func(err error) {
			if runErr == nil {
				runErr = fmt.Errorf("rank %d: %w", rank, err)
			}
		}
		mark(p, rank) // t0

		// ---- Stage (i): master streams A from the PFS, one rank's row
		// block at a time, and sends it out (no full-matrix staging, so
		// problems larger than any node's memory work — Fig. 6).
		aSlice, err := core.NewDRAM(node, fmt.Sprintf("A.r%d", rank), int64(rowsPer*n*8))
		if err != nil {
			fail(err)
			return
		}
		sliceBytes := int64(rowsPer * n * 8)
		if rank == 0 {
			buf := make([]byte, sliceBytes)
			for r := 0; r < ranks; r++ {
				if err := m.PFS.ReadAt(p, "mm/A.in", int64(r)*sliceBytes, buf); err != nil {
					fail(err)
					return
				}
				if r == 0 {
					if err := aSlice.WriteAt(p, 0, buf); err != nil {
						fail(err)
						return
					}
				} else {
					comm.Send(p, 0, r, 1, buf)
				}
			}
		} else {
			mine := comm.Recv(p, 0, rank, 1)
			if err := aSlice.WriteAt(p, 0, mine); err != nil {
				fail(err)
				return
			}
		}
		mark(p, rank) // end stage i

		// ---- Stage (ii): master reads B from the PFS into its B home.
		// With the shared mapping that home IS the one cluster-wide file;
		// otherwise it is the master's private copy that stages the
		// broadcast. The installation write runs behind the PFS read
		// (FUSE write-behind).
		sharedNVM := prm.SharedB && prm.PlaceB == OnNVM
		B, err := allocB(p, c, prm, rank, int64(n*n*8))
		if err != nil {
			fail(err)
			return
		}
		blk := prm.BcastBlockBytes
		total := int64(n * n * 8)
		if rank == 0 {
			w := newWriteBehind(m, rank, B, 2)
			buf := make([]byte, blk)
			for off := int64(0); off < total; off += blk {
				sz := min(blk, total-off)
				if err := m.PFS.ReadAt(p, "mm/B.in", off, buf[:sz]); err != nil {
					fail(err)
					return
				}
				w.enqueue(off, buf[:sz])
			}
			if err := w.wait(p); err != nil {
				fail(err)
				return
			}
		}
		mark(p, rank) // end stage ii

		// ---- Stage (iii): make B visible to every rank. With the shared
		// mapping nothing travels over MPI: the master flushes the global
		// file and every rank reads through its node's FUSE mount — the
		// network/I-O saving of Fig. 4. Otherwise B is MPI-broadcast
		// block-wise, with store writes running behind the pipeline.
		if sharedNVM {
			if rank == 0 {
				if err := B.Sync(p); err != nil {
					fail(err)
					return
				}
			}
		} else {
			writes := rank != 0
			var w *writeBehind
			if writes {
				w = newWriteBehind(m, rank, B, 2)
			}
			rbuf := make([]byte, blk)
			for off := int64(0); off < total; off += blk {
				sz := min(blk, total-off)
				var in []byte
				if rank == 0 {
					in = rbuf[:sz]
					if err := B.ReadAt(p, off, in); err != nil {
						fail(err)
						return
					}
				}
				out := comm.Bcast(p, rank, 0, in)
				if writes {
					w.enqueue(off, out)
				}
			}
			if writes {
				if err := w.wait(p); err != nil {
					fail(err)
					return
				}
			}
			if prm.PlaceB == OnNVM {
				if err := B.Sync(p); err != nil {
					fail(err)
					return
				}
			}
		}
		if rank == 0 {
			fuseBefore, ssdBefore = cacheReads(m)
		}
		mark(p, rank) // end stage iii

		// ---- Stage (iv): tiled local multiply.
		cSlice, err := core.NewDRAM(node, fmt.Sprintf("C.r%d", rank), int64(rowsPer*n*8))
		if err != nil {
			fail(err)
			return
		}
		if err := computeTile(p, c, prm, rank, rowsPer, aSlice, B, cSlice); err != nil {
			fail(err)
			return
		}
		appToB[rank] = B.AppStats().ReadBytes
		mark(p, rank) // end stage iv

		// ---- Stage (v): gather C at the master and write it out.
		mine := make([]byte, rowsPer*n*8)
		if err := cSlice.ReadAt(p, 0, mine); err != nil {
			fail(err)
			return
		}
		parts := comm.Gatherv(p, rank, 0, mine)
		if rank == 0 {
			m.PFS.Create(p, "mm/C.out")
			for r, part := range parts {
				if err := m.PFS.WriteAt(p, "mm/C.out", int64(r*rowsPer*n*8), part); err != nil {
					fail(err)
					return
				}
			}
		}
		mark(p, rank) // end stage v

		// Teardown (untimed beyond this point).
		aSlice.Free(p)
		cSlice.Free(p)
		freeB(p, B, prm, rank)
	})
	m.Eng.Run()
	if runErr != nil {
		return res, runErr
	}

	if len(stageMarks) != 6 {
		return res, fmt.Errorf("workloads: expected 6 stage marks, got %d", len(stageMarks))
	}
	res.Stages = MMStages{
		InputSplitA: stageMarks[1].Sub(stageMarks[0]),
		InputB:      stageMarks[2].Sub(stageMarks[1]),
		BroadcastB:  stageMarks[3].Sub(stageMarks[2]),
		Computing:   stageMarks[4].Sub(stageMarks[3]),
		CollectC:    stageMarks[5].Sub(stageMarks[4]),
	}
	res.Total = res.Stages.Total()
	fuseAfter, ssdAfter := cacheReads(m)
	res.FuseReadBytes = fuseAfter - fuseBefore
	res.SSDReadBytes = ssdAfter - ssdBefore
	for _, b := range appToB {
		res.AppBytesToB += b
	}

	if prm.Verify {
		got, err := m.PFS.Snapshot("mm/C.out")
		if err != nil {
			return res, err
		}
		if err := verifyMM(n, aBytes, bBytes, got); err != nil {
			res.Verified = false
			return res, err
		}
	}
	return res, nil
}

// writeBehind installs buffer blocks from a background proc so the
// caller's pipeline (PFS read, broadcast) overlaps the store writes — the
// FUSE daemon's write-behind behaviour.
type writeBehind struct {
	ch      *simtime.Chan[wbBlock]
	done    *simtime.WaitGroup
	workers int
	err     error
}

type wbBlock struct {
	off  int64
	data []byte // nil = shutdown
}

func newWriteBehind(m *sim.Machine, rank int, b core.Buffer, workers int) *writeBehind {
	if workers < 1 {
		workers = 1
	}
	w := &writeBehind{
		ch:   simtime.NewChan[wbBlock](m.Eng, fmt.Sprintf("wb r%d", rank)),
		done: &simtime.WaitGroup{},
	}
	w.workers = workers
	for i := 0; i < workers; i++ {
		w.done.Add(1)
		pr := m.Eng.Go(fmt.Sprintf("write-behind r%d.%d", rank, i), func(wp *simtime.Proc) {
			for {
				blk := w.ch.Recv(wp)
				if blk.data == nil {
					return
				}
				if w.err == nil {
					if err := b.WriteAt(wp, blk.off, blk.data); err != nil {
						w.err = err
					}
				}
			}
		})
		pr.OnDone(func() { w.done.Done(pr) })
	}
	return w
}

func (w *writeBehind) enqueue(off int64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	w.ch.Send(wbBlock{off: off, data: cp})
}

func (w *writeBehind) wait(p *simtime.Proc) error {
	for i := 0; i < w.workers; i++ {
		w.ch.Send(wbBlock{})
	}
	w.done.Wait(p)
	return w.err
}

// cacheReads snapshots the FUSE-level and SSD-level read counters.
func cacheReads(m *sim.Machine) (fuse, ssd int64) {
	s := m.CacheStats()
	return s.FuseReadBytes, s.SSDReadBytes
}

// allocB places B per the parameters: a private DRAM copy, a private NVM
// region, or the single cluster-wide shared file.
func allocB(p *simtime.Proc, c *core.Client, prm MMParams, rank int, size int64) (core.Buffer, error) {
	switch prm.PlaceB {
	case InDRAM:
		return core.NewDRAM(c.Node(), fmt.Sprintf("B.r%d", rank), size)
	case OnNVM:
		if prm.SharedB {
			return c.Malloc(p, size, core.WithName("mm.B"), core.Shared())
		}
		return c.Malloc(p, size, core.WithName(fmt.Sprintf("mm.B.r%d", rank)))
	}
	return nil, fmt.Errorf("workloads: B cannot be placed on %v", prm.PlaceB)
}

func freeB(p *simtime.Proc, B core.Buffer, prm MMParams, rank int) {
	if prm.SharedB && prm.PlaceB == OnNVM && rank != 0 {
		return // rank 0 frees the shared global file
	}
	B.Free(p)
}

// computeTile runs the tiled multiply for one rank: C_slice = A_slice × B.
// B is accessed through its Buffer (page/chunk caches when NVM-resident)
// in row-major or column-major order; A and C stream through DRAM.
func computeTile(p *simtime.Proc, c *core.Client, prm MMParams, rank, rows int, A *core.DRAMBuffer, B core.Buffer, C *core.DRAMBuffer) error {
	n, T := prm.N, prm.Tile
	bv := core.Float64s(B)
	node := c.Node()
	tile := make([]float64, T*T)

	var aRow, cRow []float64
	if prm.RealCompute {
		aRow = make([]float64, T)
		cRow = make([]float64, T)
	}
	av, cvw := core.Float64s(A), core.Float64s(C)

	var colSeg []float64
	if prm.ColumnMajorB {
		colSeg = make([]float64, T)
	}
	// kk-outer, jj-inner: with a row-major B file, the jj sweep consumes
	// the chunks holding rows kk..kk+T exactly once, so B crosses the
	// store once per multiply. With a column-major (transposed) file the
	// same sweep strides across the whole file every kk iteration — the
	// locality collapse of Fig. 5.
	for kk := 0; kk < n; kk += T {
		for jj := 0; jj < n; jj += T {
			// Load the B tile (logical B[kk..kk+T][jj..jj+T]) through the
			// cache hierarchy.
			if !prm.ColumnMajorB {
				for k := 0; k < T; k++ {
					if err := bv.LoadVec(p, int64((kk+k)*n+jj), tile[k*T:(k+1)*T]); err != nil {
						return err
					}
				}
			} else {
				// Transposed file: logical element (k, j) lives at file
				// position j*n + k.
				for j := 0; j < T; j++ {
					if err := bv.LoadVec(p, int64((jj+j)*n+kk), colSeg); err != nil {
						return err
					}
					for k := 0; k < T; k++ {
						tile[k*T+j] = colSeg[k]
					}
				}
			}
			// Stream the A and C tiles from DRAM and do the arithmetic.
			// (In RealCompute mode the per-row LoadVec/StoreVec calls
			// below charge the DRAM traffic themselves.)
			if !prm.RealCompute {
				node.MemRead(p, int64(rows*T*8))  // A tile
				node.MemRead(p, int64(rows*T*8))  // C tile in
				node.MemWrite(p, int64(rows*T*8)) // C tile out
			}
			if prm.RealCompute {
				for i := 0; i < rows; i++ {
					if err := av.LoadVec(p, int64(i*n+kk), aRow[:T]); err != nil {
						return err
					}
					if err := cvw.LoadVec(p, int64(i*n+jj), cRow[:T]); err != nil {
						return err
					}
					for k := 0; k < T; k++ {
						a := aRow[k]
						if a == 0 {
							continue
						}
						brow := tile[k*T : (k+1)*T]
						for j := 0; j < T; j++ {
							cRow[j] += a * brow[j]
						}
					}
					if err := cvw.StoreVec(p, int64(i*n+jj), cRow[:T]); err != nil {
						return err
					}
				}
			}
			node.Compute(p, 2*float64(rows)*float64(T)*float64(T))
		}
	}
	return nil
}

// transpose returns the transpose of an n×n float64 matrix in byte form.
func transpose(n int, in []byte) []byte {
	out := make([]byte, len(in))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			copy(out[(j*n+i)*8:(j*n+i)*8+8], in[(i*n+j)*8:(i*n+j)*8+8])
		}
	}
	return out
}

// verifyMM checks C == A×B exactly (small integer entries).
func verifyMM(n int, aB, bB, cB []byte) error {
	dec := func(b []byte, i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	// Spot-check a deterministic sample of entries (full n³ reference is
	// wasteful even at test sizes).
	step := n/16 + 1
	for i := 0; i < n; i += step {
		for j := 0; j < n; j += step {
			var want float64
			for k := 0; k < n; k++ {
				want += dec(aB, i*n+k) * dec(bB, k*n+j)
			}
			if got := dec(cB, i*n+j); got != want {
				return fmt.Errorf("workloads: C[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}
	return nil
}
