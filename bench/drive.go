package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation prints as its last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measurement is one setup → run → finish of a workload.
type measurement struct {
	rec      *recorder
	setupS   float64
	wall     time.Duration
	delta    counters // the layers' public counts over the measured phase
	virtualS float64
	// seq-stream's two phases, each over its own wall time (MB/s, 2-rank
	// aggregate); 0 on the other workloads.
	seqWriteMBps, seqReadMBps float64
}

func (m *measurement) rate() float64 { return float64(m.rec.units) / m.wall.Seconds() }

// measure runs a workload once. Verification failures are counted in the
// recorder; an error is a run that could not be carried out at all.
func measure(name string, p params) (*measurement, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := w.setup(p); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	m := &measurement{setupS: time.Since(t0).Seconds()}
	before := w.snapshot()
	if p.tracer != nil {
		p.tracer.on.Store(true)
	}
	t1 := time.Now()
	rerr := w.run()
	m.wall = time.Since(t1)
	if p.tracer != nil {
		p.tracer.on.Store(false)
	}
	m.delta = w.snapshot().sub(before)
	switch w := w.(type) {
	case *simMM:
		m.virtualS = w.virtualS
	case *seqStream:
		m.seqWriteMBps, m.seqReadMBps = w.writeMBps, w.readMBps
	}
	ferr := w.finish()
	m.rec = w.recorded()
	if rerr != nil {
		return nil, fmt.Errorf("%s: %w", name, rerr)
	}
	if ferr != nil {
		// The teardown checks (leaked chunks, a failed Free) are output
		// checks like any other.
		m.rec.attempted++
		m.rec.fail(ferr)
	}
	return m, nil
}

// minSetups is the least number of set-ups setup_s is the median of.
const minSetups = 5

// runEndToEnd is the --trace 0 run, tracing off. The work is cut into the
// workload's number of segments, each a whole setup → run → finish on a
// cluster of its own and a seed of its own, and every metric is the median
// over the segments: on a small box one run differs from the next by what
// the scheduler and the collector happened to do, and the median of
// independent segments is far steadier than one long run. setup_s is the
// median set-up; peak_rss_MB is the process's high-water mark over all.
func runEndToEnd(name string, seed uint64, seconds int) (*result, error) {
	k := segmentsOf(name)
	segSeeds := newRng(seed, 1000)
	shared := &simRows{}
	per := map[string][]float64{}
	var total recorder
	for i := 0; i < k; i++ {
		m, err := measure(name, params{seed: segSeeds.next(), scale: float64(seconds) / float64(k), simRows: shared})
		if err != nil {
			return nil, err
		}
		rec := m.rec
		if len(rec.prim) == 0 || len(rec.sec) == 0 {
			return nil, fmt.Errorf("%s recorded %d primary and %d secondary samples", name, len(rec.prim), len(rec.sec))
		}
		for name, v := range map[string]float64{
			"setup_s":          m.setupS,
			"ops_per_s":        m.rate(),
			"primary_p50_us":   float64(percentile(rec.prim, 0.5)) / 1e3,
			"primary_tail_us":  float64(tailPercentile(rec.prim)) / 1e3,
			"secondary_p50_us": float64(percentile(rec.sec, 0.5)) / 1e3,
		} {
			per[name] = append(per[name], v)
		}
		fmt.Fprintf(os.Stderr, "%s segment %d/%d: wall %.2fs, %d units, %d primary / %d secondary samples\n",
			name, i+1, k, m.wall.Seconds(), rec.units, len(rec.prim), len(rec.sec))
		total.merge(&recorder{attempted: rec.attempted, failed: rec.failed, firstErr: rec.firstErr})
		// Hand the segment's memory back, or peak_rss_MB would measure the
		// garbage of earlier segments and not the workload.
		debug.FreeOSMemory()
	}
	// A workload of few segments (sim-mm) sets up a few more times, so that
	// setup_s is a median of at least minSetups samples like the rest.
	for i := k; i < minSetups; i++ {
		w, err := newWorkload(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setup(params{seed: segSeeds.next(), scale: float64(seconds) / float64(k), simRows: shared}); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		per["setup_s"] = append(per["setup_s"], time.Since(t0).Seconds())
		if err := w.finish(); err != nil {
			return nil, fmt.Errorf("%s teardown after set-up: %w", name, err)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{"peak_rss_MB": rss}
	for name, v := range per {
		vals[name] = median(v)
	}
	return finishResult(&total, endToEnd, vals)
}

// runTraced is the --trace 1 run: the workload at half scale untraced,
// then again traced (the ratio of the two rates is the tracing overhead),
// then the single-layer probes; every per-layer metric.
func runTraced(name string, seed uint64, seconds int, outDir string) (*result, error) {
	p := params{seed: seed, scale: float64(seconds) / 2, simRows: &simRows{}}
	plain, err := measure(name, p)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	p.tracer = newTracer()
	m, err := measure(name, p)
	if err != nil {
		return nil, err
	}
	a := p.tracer.analyse()
	path, err := p.tracer.writeFile(outDir, name, seed, a)
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d root spans, %d S1/B spans → %s\n", name, a.nRoots, len(p.tracer.spans), path)
	p.tracer = nil
	debug.FreeOSMemory()

	vals := map[string]float64{}
	layerMetrics(vals, a)
	countMetrics(vals, m)
	spanMetrics(vals, a)
	probeMetrics(vals)
	vals["manager.tcp_overhead_us"] = 0
	if a.s1[s1Create].count() > 0 {
		vals["manager.tcp_overhead_us"] = a.s1[s1Create].pctUS(0.5) -
			(vals["probe.manager_create_ns"]+vals["probe.gob_meta_roundtrip_ns"])/1e3
	}
	// The two phase rates come from the untraced pass, like every number a
	// user would see.
	vals["seq_write_MBps"], vals["seq_read_MBps"] = plain.seqWriteMBps, plain.seqReadMBps
	vals["trace_overhead_ratio"] = m.rate() / plain.rate()
	vals["trace.s1_orphans"] = float64(a.s1Orphans)

	rec := m.rec
	rec.merge(&recorder{attempted: plain.rec.attempted, failed: plain.rec.failed, firstErr: plain.rec.firstErr})
	rec.attempted++
	if a.s1Orphans > 0 {
		rec.fail(fmt.Errorf("%d S1 spans have no root span", a.s1Orphans))
	}
	// The layer times of every root span add up to its duration, so the
	// totals must agree; 5 % is the acceptance criterion, the construction
	// gives equality.
	var sum int64
	for _, ns := range a.layerNS {
		sum += ns
	}
	rec.attempted++
	if diff := float64(sum - a.rootNS); a.rootNS == 0 || diff > 0.05*float64(a.rootNS) || -diff > 0.05*float64(a.rootNS) {
		rec.fail(fmt.Errorf("layer self times sum to %d ns, root spans to %d ns", sum, a.rootNS))
	}
	return finishResult(rec, perLayer, vals)
}

// finishResult builds the result from defs and vals, which must name the
// same metrics.
func finishResult(rec *recorder, defs []metricDef, vals map[string]float64) (*result, error) {
	res := &result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(vals), len(defs))
	}
	if rec.firstErr != nil {
		fmt.Fprintf(os.Stderr, "FAILED CHECK (%d of %d ops): %v\n", rec.failed, rec.attempted, rec.firstErr)
	}
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func layerMetrics(vals map[string]float64, a *analysis) {
	names := [nLayers][2]string{
		layCache:   {"cache.self_s", "cache.self_share"},
		layRPCMeta: {"rpc.meta_busy_s", "rpc.meta_share"},
		layRPCData: {"rpc.data_busy_s", "rpc.data_share"},
		layBen:     {"", "benefactor.self_share"},
		laySim:     {"sim.self_s", "sim.self_share"},
	}
	for l, n := range names {
		if n[0] != "" {
			vals[n[0]] = float64(a.layerNS[l]) / 1e9
		}
		vals[n[1]] = ratio(a.layerNS[l], a.rootNS)
	}
	// benefactor.busy_s is all backend time, also what no root waited for.
	var busy int64
	for k := range a.b {
		busy += a.b[k].sum
	}
	vals["benefactor.busy_s"] = float64(busy) / 1e9
}

func countMetrics(vals map[string]float64, m *measurement) {
	d := m.delta
	vals["pagecache.hit_ratio"] = ratio(d[cPcHit], d[cPcHit]+d[cPcFault])
	vals["pagecache.fault_bytes"] = float64(d[cPcFaultB])
	vals["pagecache.writeback_bytes"] = float64(d[cPcWritebackB])
	vals["chunkcache.hit_ratio"] = ratio(d[cCcHit], d[cCcHit]+d[cCcMiss])
	vals["chunkcache.misses"] = float64(d[cCcMiss])
	vals["chunkcache.waits"] = float64(d[cCcWait])
	vals["chunkcache.evictions"] = float64(d[cCcEvict])
	vals["chunkcache.dirty_evictions"] = float64(d[cCcDirtyEvict])
	vals["chunkcache.prefetch_bytes"] = float64(d[cCcPrefetchB])
	vals["chunkcache.remaps"] = float64(d[cCcRemap])
	vals["chunkcache.flushes"] = float64(d[cCcFlush])
	vals["chunkcache.read_amp"] = ratio(d[cCcSSDReadB], d[cAppReadB])
	vals["chunkcache.write_amp"] = ratio(d[cCcSSDWriteB], d[cAppWriteB])
	vals["rpc.inflight_peak"] = float64(d[cRPCInFlightPeak])
	vals["rpc.retries"] = float64(d[cRPCRetries])
	vals["rpc.meta_retries"] = float64(d[cRPCMetaRetries])
	vals["rpc.map_retries"] = float64(d[cRPCMapRetries])
	vals["rpc.failovers"] = float64(d[cRPCFailovers])
	vals["rpc.degraded_writes"] = float64(d[cRPCDegradedWrites])
	vals["rpc.pool_wait_mean_us"] = ratio(d[cPoolWaitNS], d[cPoolWaits]) / 1e3
	vals["benefactor.delete.count"] = float64(d[cBenDeletes])
	vals["benefactor.bytes_read"] = float64(d[cBenBytesRead])
	vals["benefactor.bytes_written"] = float64(d[cBenBytesWritten])
	vals["benefactor.page_bytes_written"] = float64(d[cBenPageBytesWritten])
	vals["meta.shard_skew"] = ratio(m.rec.shard0, m.rec.names)
	vals["sim.virtual_total_s"] = m.virtualS
}

func spanMetrics(vals map[string]float64, a *analysis) {
	for _, k := range []s1Kind{s1GetChunk, s1PutChunk, s1PutPages} {
		op := &a.s1[k]
		vals["rpc."+s1Names[k]+".count"] = float64(op.count())
		vals["rpc."+s1Names[k]+".p50_us"] = op.pctUS(0.5)
		vals["rpc."+s1Names[k]+".p90_us"] = op.pctUS(0.9)
	}
	for _, k := range []s1Kind{s1Create, s1Lookup, s1Delete, s1Link, s1Derive, s1Remap} {
		op := &a.s1[k]
		vals["rpc."+s1Names[k]+".count"] = float64(op.count())
		vals["rpc."+s1Names[k]+".p50_us"] = op.pctUS(0.5)
	}
	vals["benefactor.get.count"] = float64(a.b[bGet].count())
	vals["benefactor.put.count"] = float64(a.b[bPut].count())
	vals["benefactor.get_mean_us"] = a.b[bGet].meanUS()
	vals["benefactor.put_mean_us"] = a.b[bPut].meanUS()
	// What a chunk fetch costs beyond the backend: client, wire, dispatch.
	vals["rpc.wire_us_per_chunk"] = 0
	if a.s1[s1GetChunk].count() > 0 {
		vals["rpc.wire_us_per_chunk"] = a.s1[s1GetChunk].meanUS() - a.b[bGet].meanUS()
	}
	lo, hi := a.benOps[0], a.benOps[0]
	for _, n := range a.benOps[1:] {
		lo, hi = min(lo, n), max(hi, n)
	}
	vals["benefactor.imbalance"] = ratio(hi, lo)
}
