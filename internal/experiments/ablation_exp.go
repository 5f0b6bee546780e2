package experiments

import (
	"fmt"

	"nvmalloc/internal/cluster"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/sim"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/sysprof"
	"nvmalloc/internal/workloads"
)

// AblationReadahead isolates the FUSE-layer read-ahead: sequential NVM
// STREAM with prefetch on and off.
func AblationReadahead(o Opts) (*Report, error) {
	rep := &Report{
		ID:      "AblReadahead",
		Title:   "Ablation: FUSE read-ahead on sequential NVM access (STREAM COPY, C on local SSD)",
		Columns: []string{"read-ahead chunks", "MB/s"},
	}
	for _, ra := range []int{0, 1, 2, 4} {
		prof := sysprof.Bench()
		prof.ReadAheadChunks = ra
		m, err := sim.NewMachine(simtime.NewEngine(), prof,
			cluster.Config{Mode: cluster.LocalSSD, ProcsPerNode: 8, ComputeNodes: 1, Benefactors: 1},
			manager.RoundRobin)
		if err != nil {
			return nil, err
		}
		res, err := workloads.RunStream(m, workloads.StreamParams{
			ArrayBytes: o.StreamArrayBytes, Threads: 8, Iters: o.StreamIters,
			Kernel: workloads.COPY,
			PlaceA: workloads.InDRAM, PlaceB: workloads.InDRAM, PlaceC: workloads.OnNVM,
		})
		if err != nil {
			return nil, err
		}
		rep.Add(fmt.Sprintf("%d", ra), mbps(res.BandwidthMBps))
	}
	rep.Note("flat: eight threads interleave their slices of one array, so the per-file stream never sees two consecutive chunks and confirms no run; what differs from direct SSD access here (Table III) is chunking, and read-ahead shows where one reader owns a file (Fig. 3, the TCP restore read-back)")
	return rep, nil
}

// AblationChunkSize sweeps the store's striping unit.
func AblationChunkSize(o Opts) (*Report, error) {
	rep := &Report{
		ID:      "AblChunk",
		Title:   "Ablation: chunk size vs sequential bandwidth and random-write SSD volume",
		Columns: []string{"chunk", "seq MB/s", "rand-write SSD (MiB)"},
	}
	for _, cs := range []int64{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		prof := sysprof.Bench()
		prof.ChunkSize = cs
		prof.FUSECacheSize = 32 * cs // hold the cache:chunk ratio fixed
		if need := prof.FUSECacheSize + 8*prof.PageCacheSize; need > prof.SystemReserve {
			prof.SystemReserve = need
			prof.DRAMPerNode += need
		}
		m, err := sim.NewMachine(simtime.NewEngine(), prof,
			cluster.Config{Mode: cluster.LocalSSD, ProcsPerNode: 8, ComputeNodes: 1, Benefactors: 1},
			manager.RoundRobin)
		if err != nil {
			return nil, err
		}
		seq, err := workloads.RunStream(m, workloads.StreamParams{
			ArrayBytes: o.StreamArrayBytes / 2, Threads: 8, Iters: 3,
			Kernel: workloads.COPY,
			PlaceA: workloads.InDRAM, PlaceB: workloads.InDRAM, PlaceC: workloads.OnNVM,
		})
		if err != nil {
			return nil, err
		}
		m2, err := sim.NewMachine(simtime.NewEngine(), prof,
			cluster.Config{Mode: cluster.LocalSSD, ProcsPerNode: 1, ComputeNodes: 1, Benefactors: 1},
			manager.RoundRobin)
		if err != nil {
			return nil, err
		}
		rw, err := workloads.RunRandWrite(m2, workloads.RandWriteParams{
			RegionBytes: o.RandRegionBytes / 2, Writes: o.RandWrites / 4, WriteSize: 1, Seed: 5,
		})
		if err != nil {
			return nil, err
		}
		rep.Add(fmt.Sprintf("%dK", cs>>10), mbps(seq.BandwidthMBps), mib(rw.SSDWriteBytes))
	}
	rep.Note("bigger chunks amortize per-request latency for sequential streams but magnify random-write read-modify-write traffic — the tension the 256KB default balances")
	return rep, nil
}

// AblationCacheSize sweeps the FUSE cache capacity against the MM compute
// stage.
func AblationCacheSize(o Opts) (*Report, error) {
	rep := &Report{
		ID:      "AblCache",
		Title:   "Ablation: FUSE cache size vs MM compute-stage time (L-SSD(8:8:8))",
		Columns: []string{"cache (chunks)", "computing (s)", "SSD read (MiB)"},
	}
	cfg := cluster.Config{Mode: cluster.LocalSSD, ProcsPerNode: 8, ComputeNodes: 8, Benefactors: 8}
	for _, chunks := range []int64{4, 8, 16, 32, 64} {
		prof := o.mmProfile()
		prof.FUSECacheSize = chunks * prof.ChunkSize
		m, err := sim.NewMachine(simtime.NewEngine(), prof, cfg, manager.RoundRobin)
		if err != nil {
			return nil, err
		}
		res, err := workloads.RunMM(m, workloads.MMParams{
			N: o.MatrixN / 2, PlaceB: workloads.OnNVM, SharedB: true, Tile: o.Tile,
		})
		if err != nil {
			return nil, err
		}
		rep.Add(fmt.Sprintf("%d", chunks), secs(res.Stages.Computing), mib(res.SSDReadBytes))
	}
	return rep, nil
}

// AblationPlacement compares the manager's chunk placement policies under
// pre-existing wear imbalance.
func AblationPlacement(o Opts) (*Report, error) {
	rep := &Report{
		ID:      "AblPlacement",
		Title:   "Ablation: chunk placement policy under wear imbalance (benefactor 0 pre-worn)",
		Columns: []string{"policy", "chunks on b0", "chunks on b1", "chunks on b2", "chunks on b3"},
	}
	for _, pol := range []manager.PlacementPolicy{manager.RoundRobin, manager.LeastLoaded, manager.WearAware} {
		mgr := manager.New(32<<10, pol)
		for i := 0; i < 4; i++ {
			wear := int64(0)
			if i == 0 {
				wear = 1 << 40 // benefactor 0 has absorbed a terabyte of writes
			}
			mgr.Register(proto.BenefactorInfo{ID: i, Node: i, Capacity: 1 << 30, WriteVolume: wear}, "", 0)
		}
		perBen := make([]int, 4)
		for f := 0; f < 32; f++ {
			fi, err := mgr.Create(fmt.Sprintf("f%d", f), 8*32<<10)
			if err != nil {
				return nil, err
			}
			for _, ref := range fi.Chunks {
				perBen[ref.Benefactor]++
			}
		}
		rep.Add(pol.String(),
			fmt.Sprintf("%d", perBen[0]), fmt.Sprintf("%d", perBen[1]),
			fmt.Sprintf("%d", perBen[2]), fmt.Sprintf("%d", perBen[3]))
	}
	rep.Note("wear-aware placement steers new chunks away from worn devices (the lifetime goal of §III-A); round-robin is the paper's striping default")
	return rep, nil
}

// Devices renders Table I and the Table II testbed.
func Devices() *Report {
	rep := &Report{
		ID:      "Table1+2",
		Title:   "Device characteristics (Table I) and testbed (Table II)",
		Columns: []string{"device", "type", "interface", "read", "write", "latency", "capacity", "cost"},
	}
	for _, d := range sysprof.Devices() {
		rep.Add(d.Name, d.Kind, d.Interface,
			fmt.Sprintf("%.1f MB/s", d.ReadBW/1e6), fmt.Sprintf("%.1f MB/s", d.WriteBW/1e6),
			d.ReadLatency.String(), fmt.Sprintf("%d GB", d.CapacityGB), fmt.Sprintf("$%.0f", d.CostUSD))
	}
	h := sysprof.HAL()
	rep.Note("testbed (Table II): %d nodes x %d cores at %.1f GHz, %d GB DRAM/node, %s SSDs, %s",
		h.Nodes, h.CoresPerNode, h.ClockHz/1e9, h.DRAMPerNode>>30, h.SSD.Name, h.Net.Name)
	return rep
}
