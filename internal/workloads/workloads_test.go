package workloads

import (
	"testing"

	"nvmalloc/internal/cluster"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/sim"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/sysprof"
)

func testMachine(t *testing.T, cfg cluster.Config) *sim.Machine {
	t.Helper()
	m, err := sim.NewMachine(simtime.NewEngine(), sysprof.Bench(), cfg, manager.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func lssd(px, nx, bx int) cluster.Config {
	return cluster.Config{Mode: cluster.LocalSSD, ProcsPerNode: px, ComputeNodes: nx, Benefactors: bx}
}

func rssd(px, nx, bx int) cluster.Config {
	return cluster.Config{Mode: cluster.RemoteSSD, ProcsPerNode: px, ComputeNodes: nx, Benefactors: bx}
}

func dram(px, nx int) cluster.Config {
	return cluster.Config{Mode: cluster.DRAMOnly, ProcsPerNode: px, ComputeNodes: nx}
}

// ---------- STREAM ----------

func TestStreamDRAMVerifies(t *testing.T) {
	m := testMachine(t, dram(8, 1))
	res, err := RunStream(m, StreamParams{
		ArrayBytes: 512 << 10, Threads: 8, Iters: 2, Kernel: TRIAD,
		PlaceA: InDRAM, PlaceB: InDRAM, PlaceC: InDRAM, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("TRIAD result wrong")
	}
	if res.BandwidthMBps < 1000 {
		t.Fatalf("DRAM TRIAD bandwidth %.1f MB/s implausibly low", res.BandwidthMBps)
	}
}

func TestStreamAllKernelsAllPlacements(t *testing.T) {
	for _, k := range []StreamKernel{COPY, SCALE, ADD, TRIAD} {
		for _, pl := range []Placement{InDRAM, OnNVM, OnDirectSSD} {
			m := testMachine(t, lssd(8, 1, 1))
			res, err := RunStream(m, StreamParams{
				ArrayBytes: 256 << 10, Threads: 4, Iters: 2, Kernel: k,
				PlaceA: InDRAM, PlaceB: InDRAM, PlaceC: pl, Verify: true,
			})
			if err != nil {
				t.Fatalf("%v with C on %v: %v", k, pl, err)
			}
			if !res.Verified {
				t.Fatalf("%v with C on %v: wrong result", k, pl)
			}
		}
	}
}

func TestStreamNVMFarSlowerThanDRAM(t *testing.T) {
	run := func(pl Placement) float64 {
		m := testMachine(t, lssd(8, 1, 1))
		res, err := RunStream(m, StreamParams{
			ArrayBytes: 1 << 20, Threads: 8, Iters: 3, Kernel: TRIAD,
			PlaceA: pl, PlaceB: pl, PlaceC: pl,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.BandwidthMBps
	}
	dramBW := run(InDRAM)
	nvmBW := run(OnNVM)
	if dramBW/nvmBW < 10 {
		t.Fatalf("DRAM %.1f vs NVM %.1f MB/s: expected an order-of-magnitude gap (paper: 62x)", dramBW, nvmBW)
	}
}

// ---------- Matrix multiplication ----------

func TestMMVerifiesOnNVMSharedRowMajor(t *testing.T) {
	m := testMachine(t, lssd(2, 2, 2))
	res, err := RunMM(m, MMParams{
		N: 64, PlaceB: OnNVM, SharedB: true, Tile: 16,
		RealCompute: true, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("MM result wrong")
	}
	if res.Total <= 0 {
		t.Fatal("no time elapsed")
	}
	// At this tiny size B fits entirely in the FUSE cache, so no compute-
	// phase SSD reads are expected — but app and FUSE traffic must show.
	if res.AppBytesToB == 0 || res.FuseReadBytes == 0 {
		t.Fatalf("traffic counters empty: %+v", res)
	}
}

func TestMMVerifiesColumnMajorAndIndividual(t *testing.T) {
	for _, prm := range []MMParams{
		{N: 64, PlaceB: OnNVM, SharedB: false, Tile: 16, RealCompute: true, Verify: true},
		{N: 64, PlaceB: OnNVM, SharedB: true, ColumnMajorB: true, Tile: 16, RealCompute: true, Verify: true},
		{N: 64, PlaceB: InDRAM, Tile: 16, RealCompute: true, Verify: true},
	} {
		m := testMachine(t, lssd(2, 2, 2))
		res, err := RunMM(m, prm)
		if err != nil {
			t.Fatalf("%+v: %v", prm, err)
		}
		if !res.Verified {
			t.Fatalf("%+v: wrong result", prm)
		}
	}
}

func TestMMColumnMajorSlowerAndNoisier(t *testing.T) {
	// B must exceed the FUSE cache (1 MiB at bench scale) for the access
	// pattern to matter: N=512 gives a 2 MiB B.
	run := func(col bool) MMResult {
		m := testMachine(t, lssd(2, 2, 2))
		res, err := RunMM(m, MMParams{N: 512, PlaceB: OnNVM, SharedB: true, ColumnMajorB: col, Tile: 64})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	row, col := run(false), run(true)
	if col.Stages.Computing <= row.Stages.Computing {
		t.Fatalf("column-major compute %v should exceed row-major %v", col.Stages.Computing, row.Stages.Computing)
	}
	if col.FuseReadBytes < row.FuseReadBytes {
		t.Fatalf("column-major FUSE traffic %d below row-major %d", col.FuseReadBytes, row.FuseReadBytes)
	}
	// The chunk-level collapse: every kk sweep re-reads the whole file.
	if col.SSDReadBytes <= 2*row.SSDReadBytes {
		t.Fatalf("column-major SSD traffic %d should dwarf row-major %d", col.SSDReadBytes, row.SSDReadBytes)
	}
}

func TestMMDRAMInfeasibleAt8PerNode(t *testing.T) {
	// The Bench profile's node memory cannot hold a private B per rank at
	// 8 ranks/node for a 2GB-class (scaled: 8 MiB) matrix — the paper's
	// DRAM-only limitation.
	m := testMachine(t, dram(8, 16))
	_, err := RunMM(m, MMParams{N: 1024, PlaceB: InDRAM})
	if err == nil {
		t.Fatal("expected out-of-memory infeasibility")
	}
}

func TestMMRemoteBenefactorsWork(t *testing.T) {
	m := testMachine(t, rssd(2, 2, 2))
	res, err := RunMM(m, MMParams{N: 64, PlaceB: OnNVM, SharedB: true, Tile: 16, RealCompute: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("remote MM wrong")
	}
}

// ---------- Sort ----------

func TestSortHybridVerifies(t *testing.T) {
	m := testMachine(t, lssd(2, 2, 2))
	res, err := RunSort(m, SortParams{
		TotalBytes: 1 << 20, DRAMShare: 0.5, Verify: true, Seed: 42,
		ScratchBytes: 32 << 10, BlockBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Passes != 1 {
		t.Fatalf("hybrid sort: verified=%v passes=%d", res.Verified, res.Passes)
	}
}

func TestSortTwoPassVerifies(t *testing.T) {
	m := testMachine(t, dram(2, 2))
	res, err := RunSort(m, SortParams{
		TotalBytes: 1 << 20, DRAMShare: 1, TwoPass: true, Verify: true, Seed: 7,
		ScratchBytes: 32 << 10, BlockBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Passes != 2 {
		t.Fatalf("two-pass sort: verified=%v passes=%d", res.Verified, res.Passes)
	}
	// The staging runs must have moved through the PFS.
	if res.PFSBytes < 3<<20 {
		t.Fatalf("two-pass PFS traffic %d too low for staging", res.PFSBytes)
	}
}

func TestSortAllDRAMSinglePassVerifies(t *testing.T) {
	m := testMachine(t, dram(4, 4))
	res, err := RunSort(m, SortParams{
		TotalBytes: 1 << 20, DRAMShare: 1, Verify: true, Seed: 3,
		ScratchBytes: 32 << 10, BlockBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("all-DRAM sort wrong")
	}
}

func TestSortInfeasibleWithoutNVM(t *testing.T) {
	m := testMachine(t, dram(8, 16))
	// 10x the aggregate available DRAM, single pass, all in DRAM.
	_, err := RunSort(m, SortParams{TotalBytes: 10 * 16 * m.Prof.AvailableDRAM(), DRAMShare: 1})
	if err == nil {
		t.Fatal("expected infeasibility")
	}
}

// ---------- Random writes ----------

func TestRandWriteVerifiesAndOptimizationHelps(t *testing.T) {
	run := func(full bool) RandWriteResult {
		prof := sysprof.Bench()
		prof.WriteFullChunks = full
		m, err := sim.NewMachine(simtime.NewEngine(), prof, lssd(1, 1, 1), manager.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRandWrite(m, RandWriteParams{
			RegionBytes: 2 << 20, Writes: 2000, WriteSize: 1, Seed: 99, Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatal("random writes lost data")
		}
		return res
	}
	opt, noOpt := run(false), run(true)
	if noOpt.SSDWriteBytes < 4*opt.SSDWriteBytes {
		t.Fatalf("without optimization SSD volume %d should dwarf optimized %d (paper: 19.3GB vs 504MB)",
			noOpt.SSDWriteBytes, opt.SSDWriteBytes)
	}
	if opt.FuseWriteBytes == 0 {
		t.Fatal("FUSE write counter empty")
	}
}

// ---------- Checkpointing ----------

func TestCheckpointScenario(t *testing.T) {
	m := testMachine(t, lssd(2, 2, 2))
	res, err := RunCheckpoint(m, CkptParams{
		DRAMBytes: 64 << 10, NVMBytes: 512 << 10, Timesteps: 4,
		DirtyFraction: 0.25, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("checkpoint restore wrong")
	}
	// The verify leg read the restored variable on node 1, from the store.
	if got := m.ChunkCache(1).Stats().SSDReadBytes; got < 512<<10 {
		t.Fatalf("restore verified with %d SSD bytes read on node 1, want >= %d", got, 512<<10)
	}
	if len(res.Steps) != 4 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	// After the first checkpoint, later ones only pay for dirty chunks +
	// the DRAM dump: far fewer new chunks than the variable holds.
	varChunks := int((512 << 10) / m.Prof.ChunkSize)
	for _, s := range res.Steps[1:] {
		if s.NewChunks >= varChunks {
			t.Fatalf("step %d allocated %d chunks — incremental sharing broken", s.Step, s.NewChunks)
		}
	}
}

func TestCheckpointLinkedBeatsNaive(t *testing.T) {
	run := func(naive bool) CkptResult {
		m := testMachine(t, lssd(2, 2, 2))
		res, err := RunCheckpoint(m, CkptParams{
			DRAMBytes: 32 << 10, NVMBytes: 1 << 20, Timesteps: 3,
			DirtyFraction: 0.1, NaiveCopy: naive,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	linked, naive := run(false), run(true)
	var lb, nb int64
	for i := range linked.Steps {
		lb += linked.Steps[i].SSDWriteBytes
		nb += naive.Steps[i].SSDWriteBytes
	}
	if nb < 2*lb {
		t.Fatalf("naive checkpoint wrote %d, linked %d: linking should save most of the volume", nb, lb)
	}
	if naive.Total < linked.Total {
		t.Fatalf("naive total %v should exceed linked %v", naive.Total, linked.Total)
	}
}

func TestCheckpointWithDrain(t *testing.T) {
	m := testMachine(t, lssd(2, 2, 2))
	res, err := RunCheckpoint(m, CkptParams{
		DRAMBytes: 16 << 10, NVMBytes: 256 << 10, Timesteps: 2,
		DirtyFraction: 0.5, DrainToPFS: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	if !m.PFS.Exists("scratch/ckpt.t1") {
		t.Fatal("checkpoint not drained to PFS")
	}
}
