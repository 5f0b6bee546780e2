// Package sysprof centralizes every hardware and system constant used by
// the reproduction: the device characteristics of Table I, the HAL-cluster
// testbed of Table II, and the NVMalloc design constants (256 KB chunks,
// 4 KB pages, 64 MB FUSE cache). A Profile can be linearly scaled so that
// benchmarks move megabytes instead of the paper's gigabytes while
// preserving every ratio that shapes the results.
package sysprof

import (
	"fmt"
	"time"
)

// Byte-size units.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// DeviceProfile describes a storage or memory device (Table I).
type DeviceProfile struct {
	Name         string
	Kind         string // "SLC SSD", "MLC SSD", "SDRAM", "HDD"
	Interface    string
	ReadBW       float64       // bytes/second sustained
	WriteBW      float64       // bytes/second sustained
	ReadLatency  time.Duration // per-operation setup latency
	WriteLatency time.Duration
	CapacityGB   int64
	CostUSD      float64
	// EraseCycles is the rated program/erase cycle budget per cell; used by
	// the wear accountant (0 means not wear-limited, e.g. DRAM).
	EraseCycles int64
}

// Capacity returns the device capacity in bytes.
func (d DeviceProfile) Capacity() int64 { return d.CapacityGB * GiB }

// Table I device profiles. Bandwidths and latencies are the paper's figures
// (October 2011 market parts); DRAM latency uses the 10–14 ns midpoint.
var (
	// IntelX25E is the node-local SSD of the HAL testbed.
	IntelX25E = DeviceProfile{
		Name: "Intel X25-E", Kind: "SLC SSD", Interface: "SATA",
		ReadBW: 250e6, WriteBW: 170e6,
		ReadLatency: 75 * time.Microsecond, WriteLatency: 85 * time.Microsecond,
		CapacityGB: 32, CostUSD: 589, EraseCycles: 100_000,
	}
	// FusionIODuo is the high-end PCIe flash card of Table I.
	FusionIODuo = DeviceProfile{
		Name: "Fusion IO ioDrive Duo", Kind: "MLC SSD", Interface: "PCIe",
		ReadBW: 1.5e9, WriteBW: 1.0e9,
		ReadLatency: 30 * time.Microsecond, WriteLatency: 30 * time.Microsecond,
		CapacityGB: 640, CostUSD: 15378, EraseCycles: 10_000,
	}
	// OCZRevoDrive is the mid-range PCIe flash card of Table I.
	OCZRevoDrive = DeviceProfile{
		Name: "OCZ RevoDrive", Kind: "MLC SSD", Interface: "PCIe",
		ReadBW: 540e6, WriteBW: 480e6,
		ReadLatency: 50 * time.Microsecond, WriteLatency: 60 * time.Microsecond,
		CapacityGB: 240, CostUSD: 531, EraseCycles: 10_000,
	}
	// DDR3 is the DRAM row of Table I.
	DDR3 = DeviceProfile{
		Name: "Memory (DDR3-1600)", Kind: "SDRAM", Interface: "DIMM",
		ReadBW: 12.8e9, WriteBW: 12.8e9,
		ReadLatency: 12 * time.Nanosecond, WriteLatency: 12 * time.Nanosecond,
		CapacityGB: 16, CostUSD: 150,
	}
	// ScratchDisk models one spindle of the shared parallel file system the
	// paper's center-wide scratch provides (not in Table I; a nominal
	// enterprise SATA disk).
	ScratchDisk = DeviceProfile{
		Name: "PFS disk", Kind: "HDD", Interface: "SAS",
		ReadBW: 90e6, WriteBW: 90e6,
		ReadLatency: 8 * time.Millisecond, WriteLatency: 8 * time.Millisecond,
		CapacityGB: 1000, CostUSD: 250,
	}
)

// Devices lists the Table I profiles in paper order (for `nvmbench devices`).
func Devices() []DeviceProfile {
	return []DeviceProfile{IntelX25E, FusionIODuo, OCZRevoDrive, DDR3}
}

// NetworkProfile describes the cluster interconnect.
type NetworkProfile struct {
	Name string
	// LinkBW is the per-node NIC aggregate bandwidth in bytes/second (full
	// duplex: applies independently to send and receive sides).
	LinkBW float64
	// Lanes is how many independent links the NIC bonds. A single flow
	// rides one lane (LinkBW/Lanes) — link bonding does not accelerate
	// individual TCP streams, which is why remote-SSD STREAM falls well
	// behind local-SSD in Fig. 2.
	Lanes int
	// MsgLatency is the one-way small-message latency.
	MsgLatency time.Duration
	// LocalCopyBW is the bandwidth charged for intra-node transfers
	// (memory copies between ranks on one node).
	LocalCopyBW float64
}

// BondedDualGigE is the HAL testbed interconnect (Table II): two bonded
// gigabit links, ~234 MB/s of usable payload bandwidth (117 MB/s per
// flow), TCP-over-GigE latency.
var BondedDualGigE = NetworkProfile{
	Name:        "Bonded Dual Gigabit Ethernet",
	LinkBW:      234e6,
	Lanes:       2,
	MsgLatency:  60 * time.Microsecond,
	LocalCopyBW: 4e9,
}

// Profile aggregates every constant of a reproduction run. The zero value
// is not usable; start from HAL() or HAL().Scaled(f).
type Profile struct {
	Name string

	// Cluster shape (Table II).
	Nodes        int
	CoresPerNode int
	// ClockHz and FlopsPerCycle give the per-core compute rate used to
	// charge virtual time for arithmetic. The evaluation kernels are plain
	// scalar loops (no vectorization, no register blocking) whose B-row
	// strides miss L2 at n=16384, sustaining well under one flop per cycle
	// on 2011-era Opterons; 0.45 flops/cycle reproduces the compute-stage
	// dominance visible in Fig. 3.
	ClockHz       float64
	FlopsPerCycle float64
	// ComputeScale multiplies the effective core rate. When a workload's
	// problem dimension is scaled by s (so data volume scales by s² for
	// matrix kernels but flop count by s³), setting ComputeScale = s keeps
	// the paper's compute-time : data-movement-time ratio intact — the
	// ratio every crossover in the evaluation depends on. 1.0 = unscaled.
	ComputeScale float64
	// DRAMPerNode is the physical memory per node; SystemReserve is DRAM
	// withheld for the OS/page-cache (the paper mlock()s all but 1.25 GB).
	DRAMPerNode   int64
	SystemReserve int64

	SSD  DeviceProfile
	DRAM DeviceProfile
	Net  NetworkProfile

	// NVMalloc design constants.
	ChunkSize     int64 // store striping unit (paper: 256 KB)
	PageSize      int64 // dirty-tracking unit (paper: 4 KB)
	FUSECacheSize int64 // per-node chunk cache (paper: 64 MB)
	// PageCacheSize is the per-process page-cache capacity standing in for
	// the kernel page cache in front of FUSE.
	PageCacheSize int64
	// ReadAheadChunks is how many chunks the FUSE cache prefetches beyond a
	// sequentially-missed chunk (0 disables read-ahead).
	ReadAheadChunks int
	// WriteFullChunks disables the dirty-page write optimization
	// (Table VII's baseline): whole chunks travel on every writeback.
	WriteFullChunks bool
	// FuseConcurrency is the per-node FUSE daemon's store-request
	// parallelism. A calibration of the simulated testbed, not of the
	// library: the 2012 implementation served ~2 requests at a time (one
	// demand fetch plus one read-ahead), and the paper's tables were fitted
	// with that.
	FuseConcurrency int
	// Replication is the store's chunk copy count (0 or 1 = no redundancy,
	// the paper's baseline; ≥2 enables the fault-tolerance extension:
	// replicated writes, failover reads, and Repair).
	Replication int

	// PFS models the shared scratch file system: aggregate bandwidth across
	// all clients plus a per-open latency.
	PFSAggregateBW float64
	PFSOpenLatency time.Duration

	// RPCOverhead is the fixed CPU+software cost charged per store RPC on
	// top of network/device time (FUSE user-kernel crossings, protocol
	// handling).
	RPCOverhead time.Duration

	// Scale is the linear factor applied relative to the paper's testbed
	// (1.0 = paper scale). It is recorded so reports can state the scaling.
	Scale float64
}

// HAL returns the full-scale testbed profile of Table II: 16 nodes, 8 cores
// per node at 2.4 GHz, 8 GB DRAM per node, Intel X25-E SSDs, bonded dual
// GigE, and the paper's NVMalloc constants.
func HAL() Profile {
	return Profile{
		Name:          "HAL",
		Nodes:         16,
		CoresPerNode:  8,
		ClockHz:       2.4e9,
		FlopsPerCycle: 0.45,
		ComputeScale:  1.0,
		DRAMPerNode:   8 * GiB,
		SystemReserve: 1.25 * 1024 * MiB,
		SSD:           IntelX25E,
		DRAM:          DDR3,
		Net:           BondedDualGigE,

		ChunkSize:       256 * KiB,
		PageSize:        4 * KiB,
		FUSECacheSize:   64 * MiB,
		PageCacheSize:   16 * MiB,
		ReadAheadChunks: 4,
		FuseConcurrency: 2,

		// HAL is a 16-node lab cluster; its shared scratch is a modest
		// parallel file system, far below the aggregate SSD bandwidth —
		// the gap the sort experiment (Table VI) turns on.
		PFSAggregateBW: 300e6,
		PFSOpenLatency: 2 * time.Millisecond,

		RPCOverhead: 15 * time.Microsecond,

		Scale: 1.0,
	}
}

// Scaled returns a copy of p with every capacity shrunk by factor f
// (0 < f ≤ 1) while preserving the capacity ratios that drive the paper's
// results: matrix:DRAM, cache:chunk, chunk:page. Device bandwidths,
// latencies, and compute rates are left untouched — time is what we measure,
// so the time-axis must keep the paper's physics.
func (p Profile) Scaled(f float64) Profile {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("sysprof: scale factor %v out of range (0,1]", f))
	}
	s := p
	s.Name = fmt.Sprintf("%s/scale=%g", p.Name, f)
	s.DRAMPerNode = scaleSize(p.DRAMPerNode, f)
	s.SystemReserve = scaleSize(p.SystemReserve, f)
	s.ChunkSize = scaleSize(p.ChunkSize, f)
	s.PageSize = scaleSize(p.PageSize, f)
	s.FUSECacheSize = scaleSize(p.FUSECacheSize, f)
	s.PageCacheSize = scaleSize(p.PageCacheSize, f)
	s.Scale = p.Scale * f
	return s
}

// scaleSize scales n by f, rounding to the nearest power of two and
// flooring at 512 bytes so page/chunk arithmetic stays aligned.
func scaleSize(n int64, f float64) int64 {
	v := float64(n) * f
	p := int64(512)
	for float64(p*2) <= v {
		p *= 2
	}
	// Round to nearer of p and 2p.
	if v-float64(p) > float64(2*p)-v {
		p *= 2
	}
	if p < 512 {
		p = 512
	}
	return p
}

// Bench returns the scaled profile used by this repository's test and
// benchmark harness: 1/256 of the paper's capacities (2 GB matrices become
// 8 MB; the 64 MB FUSE cache becomes 1 MB), with chunk=32 KiB and
// page=512 B (1/8 of the paper's units, keeping 64 pages/chunk).
//
// Because chunks shrink 8x while device/network bandwidths stay physical,
// every fixed per-operation latency is also divided by 8 — otherwise
// latency would grow from ~7% of a chunk transfer (paper) to ~50%
// (distorting every experiment that moves chunks). Capacities scale,
// bandwidths are physical, latencies scale with the transfer unit. See
// DESIGN.md §2.
func Bench() Profile {
	p := HAL()
	p.Name = "HAL/bench"
	p.DRAMPerNode = 32 * MiB  // 8 GB / 256
	p.SystemReserve = 5 * MiB // 1.25 GB / 256
	p.ChunkSize = 32 * KiB
	p.PageSize = 512
	p.FUSECacheSize = 1 * MiB // holds 32 chunks (paper: 256)
	p.PageCacheSize = 256 * KiB
	p.ReadAheadChunks = 4

	const unit = 8 // chunk-size ratio: 256 KiB / 32 KiB
	p.SSD.ReadLatency /= unit
	p.SSD.WriteLatency /= unit
	p.Net.MsgLatency /= unit
	p.RPCOverhead /= unit
	p.PFSOpenLatency /= unit

	p.Scale = 1.0 / 256
	return p
}

// CoreFlops returns the effective per-core compute rate in flops/second.
func (p Profile) CoreFlops() float64 {
	s := p.ComputeScale
	if s == 0 {
		s = 1
	}
	return p.ClockHz * p.FlopsPerCycle * s
}

// ComputeTime returns the virtual time to execute flops floating-point
// operations on one core.
func (p Profile) ComputeTime(flops float64) time.Duration {
	return time.Duration(flops / p.CoreFlops() * float64(time.Second))
}

// PagesPerChunk returns ChunkSize / PageSize.
func (p Profile) PagesPerChunk() int { return int(p.ChunkSize / p.PageSize) }

// AvailableDRAM returns the DRAM usable by application processes per node.
func (p Profile) AvailableDRAM() int64 { return p.DRAMPerNode - p.SystemReserve }

// Validate checks internal consistency of the profile.
func (p Profile) Validate() error {
	switch {
	case p.Nodes <= 0 || p.CoresPerNode <= 0:
		return fmt.Errorf("sysprof: nonpositive cluster shape %dx%d", p.Nodes, p.CoresPerNode)
	case p.ChunkSize <= 0 || p.PageSize <= 0:
		return fmt.Errorf("sysprof: nonpositive chunk/page size")
	case p.ChunkSize%p.PageSize != 0:
		return fmt.Errorf("sysprof: chunk size %d not a multiple of page size %d", p.ChunkSize, p.PageSize)
	case p.FUSECacheSize < p.ChunkSize:
		return fmt.Errorf("sysprof: FUSE cache %d smaller than one chunk %d", p.FUSECacheSize, p.ChunkSize)
	case p.AvailableDRAM() <= 0:
		return fmt.Errorf("sysprof: system reserve exceeds node DRAM")
	case p.FuseConcurrency <= 0:
		// The cache's own zero-value default is sized for the TCP path; a
		// simulated testbed must state its FUSE daemon's concurrency.
		return fmt.Errorf("sysprof: nonpositive FUSE concurrency %d", p.FuseConcurrency)
	}
	return nil
}
