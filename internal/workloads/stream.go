// Package workloads implements the paper's evaluation applications against
// the NVMalloc library: the STREAM vector kernels (Fig. 2, Table III), MPI
// dense matrix multiplication with loop tiling (Figs. 3–6, Tables IV–V),
// MPI parallel quicksort (Table VI), the random-write synthetic
// (Table VII), and a checkpoint/restart scenario (§IV-B-5). Every workload
// moves real data through the real library and verifies its results; the
// simulated devices and network only decide how long things take.
package workloads

import (
	"fmt"
	"time"

	"nvmalloc/internal/core"
	"nvmalloc/internal/sim"
	"nvmalloc/internal/simtime"
)

// Placement says where one STREAM array lives.
type Placement int

const (
	// InDRAM places the array in node-local DRAM.
	InDRAM Placement = iota
	// OnNVM places the array on the aggregate NVM store via ssdmalloc.
	OnNVM
	// OnDirectSSD places the array on the local SSD accessed through plain
	// page-granular mmap with kernel read-ahead — the "without NVMalloc"
	// baseline of Table III.
	OnDirectSSD
)

func (pl Placement) String() string {
	switch pl {
	case InDRAM:
		return "DRAM"
	case OnNVM:
		return "NVM"
	case OnDirectSSD:
		return "direct-SSD"
	}
	return "?"
}

// StreamKernel selects one of the four STREAM kernels.
type StreamKernel int

// The four STREAM kernels.
const (
	COPY  StreamKernel = iota // C[i] = A[i]
	SCALE                     // B[i] = 3*C[i]
	ADD                       // C[i] = A[i] + B[i]
	TRIAD                     // A[i] = B[i] + 3*C[i]
)

func (k StreamKernel) String() string {
	return [...]string{"COPY", "SCALE", "ADD", "TRIAD"}[k]
}

// bytesPerIter is how many bytes each kernel moves per element per
// iteration (reads + writes), the STREAM bandwidth convention.
func (k StreamKernel) bytesPerIter() int64 {
	switch k {
	case COPY, SCALE:
		return 16
	default:
		return 24
	}
}

// StreamParams configures one STREAM run.
type StreamParams struct {
	ArrayBytes int64 // size of each of A, B, C
	Threads    int   // ranks, all on node 0 (paper: 8)
	Iters      int   // kernel repetitions (paper: 10)
	Kernel     StreamKernel
	// PlaceA/B/C choose each array's home.
	PlaceA, PlaceB, PlaceC Placement
	// BlockElems is the streaming granularity in elements (one LoadVec/
	// StoreVec per block).
	BlockElems int
	// Verify checks the numeric result after the run.
	Verify bool
}

// StreamResult reports one run.
type StreamResult struct {
	Params        StreamParams
	Elapsed       time.Duration
	BandwidthMBps float64
	Verified      bool
}

// placeArray allocates one STREAM array per the placement.
func placeArray(p *simtime.Proc, m *sim.Machine, c *core.Client, name string, pl Placement, size int64) (core.Buffer, error) {
	switch pl {
	case InDRAM:
		return core.NewDRAM(c.Node(), name, size)
	case OnNVM:
		return c.Malloc(p, size, core.WithName(name))
	case OnDirectSSD:
		prof := m.Prof
		return NewDirectSSD(c.Node(), name, size, prof.PageSize, prof.PageCacheSize+prof.FUSECacheSize), nil
	}
	return nil, fmt.Errorf("workloads: unknown placement %d", pl)
}

// RunStream executes one STREAM configuration on machine m and returns the
// measured bandwidth. STREAM is one multi-threaded process on node 0 (the
// paper runs it on a single 8-core node), so the arrays are allocated once
// and all threads share them — and the one address space means one page
// cache. Arrays placed OnNVM resolve to local or remote benefactors
// depending on m's configuration.
func RunStream(m *sim.Machine, prm StreamParams) (StreamResult, error) {
	if prm.BlockElems == 0 {
		prm.BlockElems = 4096
	}
	if prm.Threads == 0 {
		prm.Threads = m.Prof.CoresPerNode
	}
	if prm.Iters == 0 {
		prm.Iters = 10
	}
	elems := prm.ArrayBytes / 8
	var runErr error
	verified := true
	var kernelTime simtime.Duration

	m.Eng.Go("stream", func(p *simtime.Proc) {
		c := m.NewClient(0)
		A, err := placeArray(p, m, c, "stream.A", prm.PlaceA, prm.ArrayBytes)
		if err != nil {
			runErr = err
			return
		}
		B, err := placeArray(p, m, c, "stream.B", prm.PlaceB, prm.ArrayBytes)
		if err != nil {
			runErr = err
			return
		}
		C, err := placeArray(p, m, c, "stream.C", prm.PlaceC, prm.ArrayBytes)
		if err != nil {
			runErr = err
			return
		}
		// Initialization pass (untimed, as in STREAM itself).
		initWG := m.Eng.GoEach("stream-init", prm.Threads, func(tp *simtime.Proc, tid int) {
			if err := streamInit(tp, prm, tid, elems, A, B, C); err != nil && runErr == nil {
				runErr = err
			}
		})
		initWG.Wait(p)
		if runErr != nil {
			return
		}
		start := p.Now()
		wg := m.Eng.GoEach("stream-thread", prm.Threads, func(tp *simtime.Proc, tid int) {
			if err := streamThread(tp, c, prm, tid, elems, A, B, C); err != nil && runErr == nil {
				runErr = err
			}
		})
		wg.Wait(p)
		kernelTime = p.Now().Sub(start)
		if prm.Verify {
			for tid := 0; tid < prm.Threads; tid++ {
				ok, verr := verifyStream(p, prm, tid, elems, A, B, C)
				if verr != nil {
					runErr = verr
					return
				}
				if !ok {
					verified = false
				}
			}
		}
	})
	m.Eng.Run()

	res := StreamResult{Params: prm, Elapsed: kernelTime, Verified: verified && prm.Verify}
	moved := float64(elems) * float64(prm.Kernel.bytesPerIter()) * float64(prm.Iters)
	if res.Elapsed > 0 {
		res.BandwidthMBps = moved / res.Elapsed.Seconds() / 1e6
	}
	return res, runErr
}

// streamInit performs the STREAM first-touch initialization of one
// thread's slice: A=1, B=2, C=0.
func streamInit(p *simtime.Proc, prm StreamParams, tid int, elems int64, A, B, C core.Buffer) error {
	lo := elems * int64(tid) / int64(prm.Threads)
	hi := elems * int64(tid+1) / int64(prm.Threads)
	av, bv, cv := core.Float64s(A), core.Float64s(B), core.Float64s(C)
	block := make([]float64, prm.BlockElems)
	for i := lo; i < hi; i += int64(len(block)) {
		n := min(int64(len(block)), hi-i)
		blk := block[:n]
		fill(blk, 1)
		if err := av.StoreVec(p, i, blk); err != nil {
			return err
		}
		fill(blk, 2)
		if err := bv.StoreVec(p, i, blk); err != nil {
			return err
		}
		fill(blk, 0)
		if err := cv.StoreVec(p, i, blk); err != nil {
			return err
		}
	}
	return nil
}

// streamThread runs the timed kernel over one thread's slice.
func streamThread(p *simtime.Proc, c *core.Client, prm StreamParams, tid int, elems int64, A, B, C core.Buffer) error {
	lo := elems * int64(tid) / int64(prm.Threads)
	hi := elems * int64(tid+1) / int64(prm.Threads)
	av, bv, cv := core.Float64s(A), core.Float64s(B), core.Float64s(C)

	in1 := make([]float64, prm.BlockElems)
	in2 := make([]float64, prm.BlockElems)
	out := make([]float64, prm.BlockElems)
	node := c.Node()
	for it := 0; it < prm.Iters; it++ {
		for i := lo; i < hi; i += int64(len(out)) {
			n := min(int64(prm.BlockElems), hi-i)
			switch prm.Kernel {
			case COPY: // C = A
				if err := av.LoadVec(p, i, in1[:n]); err != nil {
					return err
				}
				copy(out[:n], in1[:n])
				if err := cv.StoreVec(p, i, out[:n]); err != nil {
					return err
				}
			case SCALE: // B = 3*C
				if err := cv.LoadVec(p, i, in1[:n]); err != nil {
					return err
				}
				for k := int64(0); k < n; k++ {
					out[k] = 3 * in1[k]
				}
				node.Compute(p, float64(n))
				if err := bv.StoreVec(p, i, out[:n]); err != nil {
					return err
				}
			case ADD: // C = A + B
				if err := av.LoadVec(p, i, in1[:n]); err != nil {
					return err
				}
				if err := bv.LoadVec(p, i, in2[:n]); err != nil {
					return err
				}
				for k := int64(0); k < n; k++ {
					out[k] = in1[k] + in2[k]
				}
				node.Compute(p, float64(n))
				if err := cv.StoreVec(p, i, out[:n]); err != nil {
					return err
				}
			case TRIAD: // A = B + 3*C
				if err := bv.LoadVec(p, i, in1[:n]); err != nil {
					return err
				}
				if err := cv.LoadVec(p, i, in2[:n]); err != nil {
					return err
				}
				for k := int64(0); k < n; k++ {
					out[k] = in1[k] + 3*in2[k]
				}
				node.Compute(p, 2*float64(n))
				if err := av.StoreVec(p, i, out[:n]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// verifyStream checks the thread's slice against the kernel's closed form
// after Iters iterations starting from A=1, B=2, C=0.
func verifyStream(p *simtime.Proc, prm StreamParams, tid int, elems int64, A, B, C core.Buffer) (bool, error) {
	// Fixed points after ≥1 iteration of each kernel from the standard
	// init: COPY ⇒ C=1; SCALE ⇒ B=3*C; ADD ⇒ C=A+B; TRIAD ⇒ A=B+3*C.
	lo := elems * int64(tid) / int64(prm.Threads)
	av, bv, cv := core.Float64s(A), core.Float64s(B), core.Float64s(C)
	a, err := av.Load(p, lo)
	if err != nil {
		return false, err
	}
	b, err := bv.Load(p, lo)
	if err != nil {
		return false, err
	}
	cx, err := cv.Load(p, lo)
	if err != nil {
		return false, err
	}
	switch prm.Kernel {
	case COPY:
		return cx == a, nil
	case SCALE:
		return b == 3*cx, nil
	case ADD:
		return cx == a+b, nil
	case TRIAD:
		return a == b+3*cx, nil
	}
	return false, nil
}

func fill(s []float64, v float64) {
	for i := range s {
		s[i] = v
	}
}
