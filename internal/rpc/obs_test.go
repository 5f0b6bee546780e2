package rpc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/store"
)

// findEvent returns the first ring event matching comp+kind, or false.
func findEvent(events []obs.Event, comp, kind string) (obs.Event, bool) {
	for _, ev := range events {
		if ev.Comp == comp && ev.Kind == kind {
			return ev, true
		}
	}
	return obs.Event{}, false
}

// TestTraceIDPropagatesAcrossWire is the end-to-end trace drill: one Put on
// the client must show up under the same trace ID in the client's ring
// (top-level op), the manager's ring (allocation), and a benefactor's ring
// (chunk write) — proving the ID survives both gob hops.
func TestTraceIDPropagatesAcrossWire(t *testing.T) {
	r := newRig(t, 2)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	payload := bytes.Repeat([]byte("trace"), 3*testChunk/5)
	if err := st.Put("traced", payload); err != nil {
		t.Fatal(err)
	}

	putEv, ok := findEvent(st.Obs().Ring.Events(), "rpc", "put")
	if !ok {
		t.Fatal("client ring has no put event")
	}
	tid := putEv.Trace
	if len(tid) != 16 {
		t.Fatalf("trace ID %q: want 16 hex chars", tid)
	}

	if _, ok := findEvent(r.mgr.Obs().Ring.ByTrace(tid), "manager", "alloc"); !ok {
		t.Fatalf("manager ring has no alloc event for trace %s", tid)
	}
	wrote := false
	for _, bs := range r.bens {
		if _, ok := findEvent(bs.Obs().Ring.ByTrace(tid), "benefactor", "write"); ok {
			wrote = true
		}
	}
	if !wrote {
		t.Fatalf("no benefactor ring has a write event for trace %s", tid)
	}
}

// TestFailoverEmitsMetricAndEvent checks the fault path is observable: a
// replica failover increments rpc.failovers and leaves a failover event in
// the client ring carrying the read's trace ID.
func TestFailoverEmitsMetricAndEvent(t *testing.T) {
	r := newFaultRig(t, 2, ManagerConfig{Replication: 2, SweepInterval: -1})
	st, err := OpenWith(r.mgr.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("x", pattern(3, 2*testChunk)); err != nil {
		t.Fatal(err)
	}

	r.backends[0].FailGets(-1)
	defer r.backends[0].FailGets(0)
	if _, err := st.Get("x"); err != nil {
		t.Fatal(err)
	}

	snap := st.Obs().Reg.Snapshot()
	if snap.Counters["rpc.failovers"] == 0 {
		t.Fatal("rpc.failovers counter not incremented")
	}
	foEv, ok := findEvent(st.Obs().Ring.Events(), "rpc", "failover")
	if !ok {
		t.Fatal("client ring has no failover event")
	}
	getEv, ok := findEvent(st.Obs().Ring.Events(), "rpc", "get")
	if !ok {
		t.Fatal("client ring has no get event")
	}
	if foEv.Trace != getEv.Trace {
		t.Fatalf("failover trace %s != get trace %s", foEv.Trace, getEv.Trace)
	}
}

// TestLatencyHistogramsRecorded: the per-op histograms must see traffic
// after a round trip, with sane (positive, sub-minute) percentiles.
func TestLatencyHistogramsRecorded(t *testing.T) {
	r := newRig(t, 2)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("h", make([]byte, 2*testChunk)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("h"); err != nil {
		t.Fatal(err)
	}

	snap := st.Obs().Reg.Snapshot()
	for _, name := range []string{"rpc.get_chunk.latency", "rpc.put_chunk.latency"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Fatalf("%s: no observations", name)
		}
		if h.P50Nanos <= 0 || h.P99Nanos > int64(time.Minute) {
			t.Fatalf("%s: implausible percentiles p50=%d p99=%d", name, h.P50Nanos, h.P99Nanos)
		}
		if h.P99Nanos < h.P50Nanos {
			t.Fatalf("%s: p99 %d < p50 %d", name, h.P99Nanos, h.P50Nanos)
		}
	}
}

// TestDebugEndpoints spins up a manager and benefactor with debug servers
// and exercises the full scrape path nvmctl uses: StatusDetail discovery,
// /metrics, /healthz, and /trace filtered by a real trace ID.
func TestDebugEndpoints(t *testing.T) {
	ms, err := NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin,
		ManagerConfig{DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	bs, err := NewBenefactorServerWith("127.0.0.1:0", ms.Addr(), 0, 0, 64*testChunk, testChunk,
		benefactor.NewMem(), 50*time.Millisecond, BenefactorConfig{DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()

	st, err := Open(ms.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("d", make([]byte, 2*testChunk)); err != nil {
		t.Fatal(err)
	}

	// Discovery: the manager must announce its own debug endpoint and the
	// benefactor's (learned at registration).
	detail, err := st.Manager().StatusDetail()
	if err != nil {
		t.Fatal(err)
	}
	if detail.DebugAddr != ms.DebugAddr() {
		t.Fatalf("status DebugAddr %q != manager's %q", detail.DebugAddr, ms.DebugAddr())
	}
	if len(detail.Bens) != 1 || detail.Bens[0].DebugAddr != bs.DebugAddr() {
		t.Fatalf("status bens %+v: want registered debug addr %q", detail.Bens, bs.DebugAddr())
	}

	mSnap, err := obs.FetchMetrics(ms.DebugAddr())
	if err != nil {
		t.Fatal(err)
	}
	if mSnap.Node != "manager" {
		t.Fatalf("manager snapshot node %q", mSnap.Node)
	}
	if mSnap.Gauges["manager.live_benefactors"] != 1 {
		t.Fatalf("live_benefactors = %d, want 1", mSnap.Gauges["manager.live_benefactors"])
	}
	if h := mSnap.Histograms["manager.op.create.latency"]; h.Count == 0 {
		t.Fatal("manager create latency histogram empty after Put")
	}

	bSnap, err := obs.FetchMetrics(bs.DebugAddr())
	if err != nil {
		t.Fatal(err)
	}
	if bSnap.Counters["benefactor.write_bytes"] < 2*testChunk {
		t.Fatalf("benefactor.write_bytes = %d, want >= %d", bSnap.Counters["benefactor.write_bytes"], 2*testChunk)
	}

	// Trace scrape: the Put's trace ID must be queryable over HTTP from
	// both daemons.
	putEv, ok := findEvent(st.Obs().Ring.Events(), "rpc", "put")
	if !ok {
		t.Fatal("client ring has no put event")
	}
	mEvents, err := obs.FetchTrace(ms.DebugAddr(), putEv.Trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findEvent(mEvents, "manager", "alloc"); !ok {
		t.Fatalf("/trace on manager returned no alloc event for %s", putEv.Trace)
	}
	bEvents, err := obs.FetchTrace(bs.DebugAddr(), putEv.Trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findEvent(bEvents, "benefactor", "write"); !ok {
		t.Fatalf("/trace on benefactor returned no write event for %s", putEv.Trace)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", ms.DebugAddr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("/healthz: status %d body %q", resp.StatusCode, body)
	}
}

// TestMonitorHealthzDegradesOnBenefactorLoss is the end-to-end alerting
// drill: a replicated cluster with the monitor sampling loses a benefactor,
// the manager's sweep raises manager.under_replicated, the under-replicated
// rule sustains past its For window, and /healthz flips from 200 to 503
// naming the rule — the exact path the CI obs-smoke lane exercises.
func TestMonitorHealthzDegradesOnBenefactorLoss(t *testing.T) {
	ms, err := NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin,
		ManagerConfig{
			Replication:      2,
			HeartbeatTimeout: 250 * time.Millisecond,
			SweepInterval:    25 * time.Millisecond,
			DebugAddr:        "127.0.0.1:0",
			Monitor: obs.MonitorConfig{
				SampleInterval: 10 * time.Millisecond,
				Rules: []obs.Rule{{
					Name:      "under-replicated",
					Value:     obs.GaugeValue("manager.under_replicated"),
					Op:        obs.Above,
					Threshold: 0,
					For:       50 * time.Millisecond,
				}},
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	var bens []*BenefactorServer
	for i := 0; i < 2; i++ {
		bs, err := NewBenefactorServerWith("127.0.0.1:0", ms.Addr(), i, i, 64*testChunk, testChunk,
			benefactor.NewMem(), 25*time.Millisecond, BenefactorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer bs.Close()
		bens = append(bens, bs)
	}

	st, err := OpenWith(ms.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("r", pattern(7, 2*testChunk)); err != nil {
		t.Fatal(err)
	}

	// Fully replicated: health must start green.
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy, _, err := obs.FetchHealth(ms.DebugAddr())
		if err == nil && healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("manager never reported healthy: healthy=%v err=%v", healthy, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill one replica holder; its heartbeats stop and the sweep marks the
	// cluster under-replicated.
	bens[0].Close()

	for {
		healthy, firing, err := obs.FetchHealth(ms.DebugAddr())
		if err == nil && !healthy {
			if len(firing) == 0 || firing[0].Rule != "under-replicated" {
				t.Fatalf("firing = %+v, want the under-replicated rule", firing)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never degraded after losing a replica holder")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The windowed vitals must agree with the health endpoint.
	v, err := obs.FetchVitals(ms.DebugAddr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy {
		t.Fatal("/vitals healthy while under-replicated fires")
	}
	if v.Gauges["manager.under_replicated"] == 0 {
		t.Fatal("/vitals missing the under_replicated gauge")
	}
}

// TestDisabledObsIsInert: a store opened with obs.Disabled() must run the
// full data path without panicking and report empty stats — the zero-cost
// opt-out the benchmark relies on.
func TestDisabledObsIsInert(t *testing.T) {
	r := newRig(t, 2)
	st, err := OpenWith(r.mgr.Addr(), Options{Obs: obs.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := pattern(9, 3*testChunk)
	if err := st.Put("quiet", payload); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("quiet")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch with disabled obs")
	}
	if s := st.Stats(); s.ChunkGets != 0 || s.ChunkPuts != 0 {
		t.Fatalf("disabled obs still counted: %+v", s)
	}
	cache, err := NewCachedStore(st, CacheConfig{CacheBytes: 8 * testChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get("quiet"); err != nil {
		t.Fatal(err)
	}
	if cs := cache.Stats(); cs.Misses != 0 {
		t.Fatalf("disabled obs still counted cache stats: %+v", cs)
	}
}

// findSpan returns the first span with the given name, or false.
func findSpan(spans []obs.Span, name string) (obs.Span, bool) {
	for _, sp := range spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return obs.Span{}, false
}

// TestSpanTreeAcrossWire is the end-to-end span drill: a Put under an
// explicit span context must leave a stitched tree — the client's rpc.*
// children in its own ring, benefactor.*/ssd.* children in a benefactor's
// ring, all under one trace with correct parent links — and Close must
// export the client's spans to the manager so the collector can find them
// after the client exits.
func TestSpanTreeAcrossWire(t *testing.T) {
	r := newRig(t, 2)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}

	root := st.Obs().StartSpan("", "", "client.put")
	root.SetVar("spanned")
	ctx := store.WithSpan(nil, store.SpanInfo{Trace: root.Trace(), Parent: root.ID(), Var: "spanned"})
	if err := st.PutCtx(ctx, "spanned", bytes.Repeat([]byte("s"), 2*testChunk)); err != nil {
		t.Fatal(err)
	}
	root.End()
	tid := root.Trace()

	cl := st.Obs().Spans.ByTrace(tid)
	put, ok := findSpan(cl, "rpc.put_chunk")
	if !ok {
		t.Fatalf("client ring has no rpc.put_chunk span for %s (got %+v)", tid, cl)
	}
	if put.Parent == "" || put.Var != "spanned" {
		t.Fatalf("client span not linked/attributed: %+v", put)
	}

	found := false
	for _, bs := range r.bens {
		spans := bs.Obs().Spans.ByTrace(tid)
		bput, ok := findSpan(spans, "benefactor.put")
		if !ok {
			continue
		}
		found = true
		if bput.Var != "spanned" {
			t.Fatalf("benefactor span lost var attribution: %+v", bput)
		}
		ssd, ok := findSpan(spans, "ssd.write")
		if !ok {
			t.Fatal("benefactor recorded no ssd.write child span")
		}
		if ssd.Parent != bput.ID {
			t.Fatalf("ssd.write parent %q != benefactor.put id %q", ssd.Parent, bput.ID)
		}
	}
	if !found {
		t.Fatalf("no benefactor ring has a benefactor.put span for %s", tid)
	}

	// An event-only convenience op must mint no spans anywhere: the wire
	// carries a trace ID for ring events but no parent span.
	if err := st.Put("plain", make([]byte, testChunk)); err != nil {
		t.Fatal(err)
	}
	var plainTrace string
	for _, ev := range st.Obs().Ring.Events() {
		if ev.Comp == "rpc" && ev.Kind == "put" && strings.Contains(ev.Detail, `"plain"`) {
			plainTrace = ev.Trace
		}
	}
	if plainTrace == "" {
		t.Fatal("client ring has no put event for the plain file")
	}
	for _, bs := range r.bens {
		if got := bs.Obs().Spans.ByTrace(plainTrace); len(got) != 0 {
			t.Fatalf("convenience Put minted server spans: %+v", got)
		}
	}

	// Close exports the client's spans; the manager must have ingested the
	// traced tree (stamped with the client's node identity, not its own).
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	mgr := r.mgr.Obs().Spans.ByTrace(tid)
	mput, ok := findSpan(mgr, "rpc.put_chunk")
	if !ok {
		t.Fatalf("manager did not ingest the client's spans for %s (got %+v)", tid, mgr)
	}
	if mput.Node != "client" {
		t.Fatalf("ingested span node %q, want the exporting client's", mput.Node)
	}
}

// TestReadAheadSpansNestUnderCaller: read-ahead runs on tasks the substrate
// hands a fresh context, so the cache carries the caller's span across the
// spawn — on a traced sweep every cache.get_chunk span, demand or
// speculative, belongs to the caller's trace and none floats as a root.
func TestReadAheadSpansNestUnderCaller(t *testing.T) {
	const chunks = 12
	r := newRig(t, 3)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCachedStore(st, CacheConfig{CacheBytes: 2 * chunks * testChunk, PageSize: 256, ReadAheadChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	if err := cache.Put("traced", make([]byte, chunks*testChunk)); err != nil {
		t.Fatal(err)
	}
	if err := cache.Flush("traced"); err != nil {
		t.Fatal(err)
	}
	cache.Drop("traced")

	root := st.Obs().StartSpan("", "", "client.sweep")
	ctx := store.WithSpan(nil, store.SpanInfo{Trace: root.Trace(), Parent: root.ID(), Var: "traced"})
	buf := make([]byte, testChunk)
	for c := 0; c < chunks; c++ {
		if err := cache.ReadAtCtx(ctx, "traced", int64(c)*testChunk, buf); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	cache.env.Quiesce()

	if got := cache.Stats().PrefetchBytes; got != (chunks-2)*testChunk {
		t.Fatalf("read ahead %d B, want all but the two confirming chunks", got)
	}
	gets := st.Obs().Spans.Filter(func(s obs.Span) bool { return s.Name == "cache.get_chunk" })
	if len(gets) != chunks {
		t.Fatalf("%d cache.get_chunk spans for %d chunks", len(gets), chunks)
	}
	for _, s := range gets {
		if s.Trace != root.Trace() || s.Parent != root.ID() {
			t.Fatalf("cache.get_chunk span outside the caller's trace: %+v", s)
		}
	}
}
