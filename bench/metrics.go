package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one row of BENCHMARK.json. TestCatalogMatchesBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them; what "primary"
// and "secondary" op mean per workload is in workloadDefs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"primary_p50_us", "us", "lower", 0.15},
	{"primary_tail_us", "us", "lower", 0.25},
	{"secondary_p50_us", "us", "lower", 0.15},
	{"peak_rss_MB", "MB", "lower", 0.15},
}

// perLayer are the metrics of single layers, from the traced run. They
// have no bound: they say where a change to an end-to-end number came
// from. A layer a workload does not touch reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// Where root-span time goes; the five shares sum to 1.
	add("lower", "s", "cache.self_s", "rpc.data_busy_s", "rpc.meta_busy_s", "benefactor.busy_s", "sim.self_s")
	add("lower", "ratio", "cache.self_share", "rpc.data_share", "rpc.meta_share", "benefactor.self_share", "sim.self_share")
	// core + fusecache, from the public AppStats / PageCache.Stats / ChunkCache.Stats.
	add("higher", "ratio", "pagecache.hit_ratio", "chunkcache.hit_ratio")
	add("lower", "B", "pagecache.fault_bytes", "pagecache.writeback_bytes", "chunkcache.prefetch_bytes")
	add("lower", "count", "chunkcache.misses", "chunkcache.waits", "chunkcache.evictions",
		"chunkcache.dirty_evictions", "chunkcache.remaps", "chunkcache.flushes")
	add("lower", "ratio", "chunkcache.read_amp", "chunkcache.write_amp")
	// rpc, from S1 spans and rpc.Store.Stats.
	for _, op := range []string{"get_chunk", "put_chunk", "put_pages"} {
		add("lower", "count", "rpc."+op+".count")
		add("lower", "us", "rpc."+op+".p50_us", "rpc."+op+".p90_us")
	}
	for _, op := range []string{"create", "lookup", "delete", "link", "derive", "remap"} {
		add("lower", "count", "rpc."+op+".count")
		add("lower", "us", "rpc."+op+".p50_us")
	}
	add("higher", "count", "rpc.inflight_peak")
	add("lower", "count", "rpc.retries", "rpc.meta_retries", "rpc.map_retries", "rpc.failovers", "rpc.degraded_writes")
	add("lower", "us", "rpc.pool_wait_mean_us", "rpc.wire_us_per_chunk")
	// benefactor, from B spans and benefactor.Store.Stats.
	add("lower", "count", "benefactor.get.count", "benefactor.put.count", "benefactor.delete.count")
	add("lower", "us", "benefactor.get_mean_us", "benefactor.put_mean_us")
	add("lower", "B", "benefactor.bytes_read", "benefactor.bytes_written", "benefactor.page_bytes_written")
	add("lower", "ratio", "benefactor.imbalance")
	// manager + shardmap.
	add("lower", "us", "manager.tcp_overhead_us")
	add("lower", "ratio", "meta.shard_skew")
	// simulator.
	add("lower", "s", "sim.virtual_total_s")
	// Single-layer probes: tight loops on one layer's public functions.
	add("lower", "ns", "probe.pagecache_hit_ns", "probe.chunkcache_hit_ns_g1", "probe.chunkcache_hit_ns_g2",
		"probe.nvm1_frame_roundtrip_ns", "probe.arena_getput_ns", "probe.gob_meta_roundtrip_ns",
		"probe.manager_create_ns", "probe.manager_lookup_ns", "probe.manager_delete_ns", "probe.manager_link_ns",
		"probe.shardmap_shardfor_ns")
	add("lower", "count", "probe.nvm1_frame_allocs")
	add("higher", "1/s", "probe.simtime_events_per_s")
	// seq-stream's write and read phase, each over its own wall time, from
	// the traced run's untraced pass. End to end the two are gated through
	// primary_p50_us and secondary_p50_us; ops_per_s blends them.
	add("higher", "MB/s", "seq_write_MBps", "seq_read_MBps")
	// The benchmark itself.
	add("higher", "ratio", "trace_overhead_ratio")
	add("lower", "count", "trace.s1_orphans")
	return out
}

// workloadDef is one row of BENCHMARK.json's workloads, plus what the
// generic end-to-end names mean on it.
type workloadDef struct {
	Name      string
	Why       string
	Primary   string // the op primary_p50_us / primary_tail_us time
	Secondary string // the op secondary_p50_us times
	Ops       string // what ops_per_s counts
	Segments  int    // independent segments an end-to-end run is cut into
}

func segmentsOf(name string) int {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w.Segments
		}
	}
	return 1
}

var workloadDefs = []workloadDef{
	{"seq-stream",
		"2 ranks stream 64 MiB regions 4x their chunk cache: every chunk crosses the wire, so rpc+proto+benefactor do the work and the cache hit path almost none",
		"1 MiB WriteAt+Sync", "1 MiB ReadAt", "1 MiB transfers (writes then reads, 2-rank aggregate)", 7},
	{"hot-page",
		"random 4 KiB ops on a region that fits the chunk cache: core+fusecache do the work, the wire sees only periodic dirty-page writeback; bypasses what seq-stream stresses",
		"4 KiB ReadAt (1 in 16 timed)", "4 KiB WriteAt (1 in 16 timed)", "4 KiB ops (2-rank aggregate)", 7},
	{"ckpt-cycle",
		"checkpoint/restore timesteps on 1 ms devices: latency-bound, so round trips, COW remap and cross-shard link set the time and CPU work does not",
		"Checkpoint", "RestoreRegion + full read-back", "timesteps", 5},
	{"meta-churn",
		"Create/Stat/Stat/Delete churn from 2 goroutines on one rpc.Store: the metadata plane (shard router, gob, manager lock) and no chunk data at all",
		"Create", "Delete", "metadata RPCs (2-goroutine aggregate)", 9},
	{"sim-mm",
		"the simulator's Fig. 3 matrix multiply and Table VII random writes: shares core/fusecache/manager/benefactor with the TCP path, so a heavier shared cache shows here",
		"experiments.Fig3(Quick()) repetition", "experiments.Table7(Quick()) repetition", "simulator experiment runs", 2},
}

// percentile returns the p-th percentile (0..1) of d by nearest rank; d is
// sorted in place.
func percentile(d []int64, p float64) int64 {
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d) // cheap when d is already sorted, as on every call after the first
	i := int(p*float64(len(d))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

// tailPercentile is the highest of p99 / p90 / max that still has ten
// samples beyond it (p99 from 1000 samples, p90 from 100, else the max).
func tailPercentile(d []int64) int64 {
	switch {
	case len(d) >= 1000:
		return percentile(d, 0.99)
	case len(d) >= 100:
		return percentile(d, 0.90)
	}
	return percentile(d, 1)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the acceptance rule is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
