// Package sim wires the full simulated NVMalloc system for one run
// configuration: the cluster, the aggregate NVM store with benefactors
// placed per the configuration (local or remote to the compute partition),
// the shared PFS, and the per-node FUSE caches. It is the sim-side
// counterpart of the facade's Connect: both hand out core.Clients built on
// the same transport-neutral fusecache, one over simstore, the other over
// the TCP rpc adapter.
package sim

import (
	"fmt"

	"nvmalloc/internal/cluster"
	"nvmalloc/internal/core"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/pfs"
	"nvmalloc/internal/simstore"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/sysprof"
)

// Machine is the assembled simulated system.
type Machine struct {
	Eng     *simtime.Engine
	Prof    sysprof.Profile
	Cfg     cluster.Config
	Cluster *cluster.Cluster
	Store   *simstore.Store // nil in DRAM-only configurations
	PFS     *pfs.PFS

	ccs map[int]*fusecache.ChunkCache
}

// NewMachine builds a machine for cfg on a cluster described by prof.
func NewMachine(e *simtime.Engine, prof sysprof.Profile, cfg cluster.Config, policy manager.PlacementPolicy) (*Machine, error) {
	if err := cfg.Validate(prof.Nodes); err != nil {
		return nil, err
	}
	// The FUSE chunk cache and the per-process page caches live in the
	// node's system reserve (the paper mlock()s application memory and
	// leaves 1.25 GB "for the system, including the file system
	// cache/buffer").
	sysNeed := prof.FUSECacheSize + int64(cfg.ProcsPerNode)*prof.PageCacheSize
	if cfg.Mode != cluster.DRAMOnly && sysNeed > prof.SystemReserve {
		return nil, fmt.Errorf("core: FUSE cache %d + %d page caches of %d exceed the system reserve %d",
			prof.FUSECacheSize, cfg.ProcsPerNode, prof.PageCacheSize, prof.SystemReserve)
	}
	m := &Machine{
		Eng:     e,
		Prof:    prof,
		Cfg:     cfg,
		Cluster: cluster.New(e, prof),
		PFS:     pfs.New(e, prof.PFSAggregateBW, prof.PFSOpenLatency),
		ccs:     make(map[int]*fusecache.ChunkCache),
	}
	if cfg.Mode != cluster.DRAMOnly {
		benNodes := cfg.BenefactorNodeIDs()
		contribution := m.ssdContribution()
		m.Store = simstore.New(m.Cluster, benNodes[0], benNodes, contribution, policy)
		if prof.Replication > 1 {
			m.Store.Mgr.Replication = prof.Replication
		}
	}
	return m, nil
}

// ssdContribution returns how much SSD space each benefactor contributes:
// the device capacity scaled with the profile, floored at 16 chunks.
func (m *Machine) ssdContribution() int64 {
	c := int64(float64(m.Prof.SSD.Capacity()) * m.Prof.Scale)
	if min := 16 * m.Prof.ChunkSize; c < min {
		c = min
	}
	return c
}

// ChunkCache returns (lazily creating) the FUSE-layer cache of a node.
func (m *Machine) ChunkCache(node int) *fusecache.ChunkCache {
	if m.Store == nil {
		panic("sim: DRAM-only machine has no NVM store")
	}
	cc, ok := m.ccs[node]
	if !ok {
		cc = fusecache.NewChunkCache(simstore.Env(m.Eng), m.Store.Client(node), fusecache.Config{
			ChunkSize:       m.Prof.ChunkSize,
			PageSize:        m.Prof.PageSize,
			CacheBytes:      m.Prof.FUSECacheSize,
			ReadAheadChunks: m.Prof.ReadAheadChunks,
			WriteFullChunks: m.Prof.WriteFullChunks,
			FuseConcurrency: m.Prof.FuseConcurrency,
		})
		m.ccs[node] = cc
	}
	return cc
}

// Node returns the cluster node hosting a rank.
func (m *Machine) Node(rank int) *cluster.Node {
	return m.Cluster.Nodes[m.Cfg.RankNode(rank)]
}

// NewClient creates the NVMalloc client for one application rank.
func (m *Machine) NewClient(rank int) *core.Client {
	node := m.Node(rank)
	var cc *fusecache.ChunkCache
	if m.Store != nil {
		cc = m.ChunkCache(node.ID)
	}
	return core.NewClient(rank, node, cc, m.Prof.PageCacheSize)
}

// CacheStats sums the FUSE-layer counters across all nodes.
func (m *Machine) CacheStats() fusecache.Stats {
	var total fusecache.Stats
	for node := 0; node < m.Prof.Nodes; node++ {
		cc, ok := m.ccs[node]
		if !ok {
			continue
		}
		s := cc.Stats()
		total.FuseReadBytes += s.FuseReadBytes
		total.FuseWriteBytes += s.FuseWriteBytes
		total.SSDReadBytes += s.SSDReadBytes
		total.SSDWriteBytes += s.SSDWriteBytes
		total.PrefetchBytes += s.PrefetchBytes
		total.PrefetchWasted += s.PrefetchWasted
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Waits += s.Waits
		total.Evictions += s.Evictions
		total.DirtyEvictions += s.DirtyEvictions
		total.Remaps += s.Remaps
		total.Flushes += s.Flushes
	}
	return total
}

// ResetCacheStats zeroes every node's FUSE-layer counters.
func (m *Machine) ResetCacheStats() {
	for _, cc := range m.ccs {
		cc.ResetStats()
	}
}

// DrainToPFS streams a checkpoint (or any store file) of client c to the
// parallel file system in the background — the paper's staging pattern
// where the fast NVM store absorbs the checkpoint and drains to disk
// asynchronously. The returned WaitGroup completes when the drain
// finishes.
func (m *Machine) DrainToPFS(c *core.Client, name, pfsName string) (*simtime.WaitGroup, error) {
	cc := c.ChunkCache()
	if cc == nil {
		return nil, fmt.Errorf("sim: this configuration has no NVM store (DRAM-only)")
	}
	st := cc.Store()
	wg := &simtime.WaitGroup{}
	wg.Add(1)
	pr := m.Eng.Go("drain "+name, func(p *simtime.Proc) {
		fi, err := st.Lookup(p, name)
		if err != nil {
			return
		}
		m.PFS.Create(p, pfsName)
		buf := make([]byte, m.Prof.ChunkSize)
		for i := range fi.Chunks {
			data, err := st.GetChunk(p, fi.Chunks[i:i+1])
			if err != nil {
				return
			}
			copy(buf, data)
			n := int64(len(buf))
			off := int64(i) * m.Prof.ChunkSize
			if off+n > fi.Size {
				n = fi.Size - off
			}
			if n <= 0 {
				break
			}
			if err := m.PFS.WriteAt(p, pfsName, off, buf[:n]); err != nil {
				return
			}
		}
	})
	pr.OnDone(func() { wg.Done(pr) })
	return wg, nil
}
