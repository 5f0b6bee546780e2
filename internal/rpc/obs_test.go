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

// tracedCtx roots a client.<op> span on st and returns the context that
// puts an op under it, as nvmctl put/get do.
func tracedCtx(st *Store, op, name string) (store.Ctx, *obs.ActiveSpan) {
	root := st.Obs().StartSpan("", "", "client."+op)
	root.SetVar(name)
	return store.WithSpan(nil, store.SpanInfo{Trace: root.Trace(), Parent: root.ID(), Var: name}), root
}

// TestFailoverEmitsMetricAndEvent checks the fault path is observable: a
// replica failover increments rpc.failovers and leaves an rpc.failover
// event in the client's span ring carrying the read's trace ID.
func TestFailoverEmitsMetricAndEvent(t *testing.T) {
	r := newFaultRig(t, 2, ManagerConfig{Replication: 2, SweepInterval: -1})
	st, err := OpenWith(r.mgr.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := putFile(st, "x", pattern(3, 2*testChunk)); err != nil {
		t.Fatal(err)
	}

	r.backends[0].FailGets(-1)
	defer r.backends[0].FailGets(0)
	ctx, root := tracedCtx(st, "get", "x")
	if _, err := getFileCtx(ctx, st, "x"); err != nil {
		t.Fatal(err)
	}
	root.End()

	snap := st.Obs().Reg.Snapshot()
	if snap.Counters["rpc.failovers"] == 0 {
		t.Fatal("rpc.failovers counter not incremented")
	}
	fo, ok := findSpan(st.Obs().Spans.ByTrace(root.Trace()), "rpc.failover")
	if !ok {
		t.Fatalf("client span ring has no rpc.failover event for the read's trace %s", root.Trace())
	}
	if !fo.IsEvent() || !strings.Contains(fo.Detail, "served by replica 1") {
		t.Fatalf("failover event = %+v", fo)
	}
}

// TestSpanExportErrorsCounted: a span batch the manager never receives is
// counted in rpc.span_export_errors, not silently dropped.
func TestSpanExportErrorsCounted(t *testing.T) {
	r := newRig(t, 1)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	st.Obs().StartSpan("", "", "client.put").End()
	r.mgr.Close()
	st.Close() // flushes the pending batch into the dead manager
	if got := st.Obs().Reg.Counter("rpc.span_export_errors").Load(); got != 1 {
		t.Fatalf("rpc.span_export_errors = %d after one lost batch, want 1", got)
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
	if err := putFile(st, "h", make([]byte, 2*testChunk)); err != nil {
		t.Fatal(err)
	}
	if _, err := getFile(st, "h"); err != nil {
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
// /metrics, /healthz, and /spans — filtered by a real trace ID, and
// unfiltered for the daemons' events.
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
	ctx, root := tracedCtx(st, "put", "d")
	if err := putFileCtx(ctx, st, "d", make([]byte, 2*testChunk)); err != nil {
		t.Fatal(err)
	}
	root.End()

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
		t.Fatal("manager create latency histogram empty after the put")
	}

	bSnap, err := obs.FetchMetrics(bs.DebugAddr())
	if err != nil {
		t.Fatal(err)
	}
	if bSnap.Counters["benefactor.write_bytes"] < 2*testChunk {
		t.Fatalf("benefactor.write_bytes = %d, want >= %d", bSnap.Counters["benefactor.write_bytes"], 2*testChunk)
	}

	// Trace scrape: the put's trace must be queryable over HTTP from both
	// daemons, and the manager's unfiltered ring must list the
	// benefactor's registration event.
	for _, c := range []struct {
		addr, trace, name string
	}{
		{ms.DebugAddr(), root.Trace(), "manager.create"},
		{bs.DebugAddr(), root.Trace(), "benefactor.put"},
		{ms.DebugAddr(), "", "manager.register"},
	} {
		spans, err := obs.FetchSpans(c.addr, c.trace, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := findSpan(spans, c.name); !ok {
			t.Fatalf("/spans?trace=%s on %s has no %s: %+v", c.trace, c.addr, c.name, spans)
		}
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
	if err := putFile(st, "r", pattern(7, 2*testChunk)); err != nil {
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

// findSpan returns the first span with the given name, or false.
func findSpan(spans []obs.Span, name string) (obs.Span, bool) {
	for _, sp := range spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return obs.Span{}, false
}

// TestSpanTreeAcrossWire is the end-to-end span drill: a put under an
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
	if err := putFileCtx(ctx, st, "spanned", bytes.Repeat([]byte("s"), 2*testChunk)); err != nil {
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

	// A plain put is untraced: it must leave every daemon's span
	// ring unchanged and put no trace or parent span ID on the wire.
	daemons := []*obs.Obs{r.mgr.Obs()}
	for _, bs := range r.bens {
		daemons = append(daemons, bs.Obs())
	}
	var before []int
	for _, o := range daemons {
		before = append(before, o.Spans.Len())
	}
	tap := &wireTap{}
	plain, err := OpenWith(r.mgr.Addr(), Options{Dial: tap.dial})
	if err != nil {
		t.Fatal(err)
	}
	if err := putFile(plain, "plain", make([]byte, testChunk)); err != nil {
		t.Fatal(err)
	}
	plain.Close()
	for i, o := range daemons {
		if got := o.Spans.Len(); got != before[i] {
			t.Fatalf("plain put grew %s's span ring %d -> %d: %+v", o.Reg.Node(), before[i], got, o.Spans.Spans()[before[i]:])
		}
	}
	frames := tap.requests(t)
	if len(frames) == 0 {
		t.Fatal("tap saw no chunk request frames")
	}
	for _, f := range frames {
		if f.Trace != "" || f.Parent != "" {
			t.Fatalf("plain put sent %s frame with trace %q parent %q", f.Op.Op(), f.Trace, f.Parent)
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

// TestDefaultRulesReadDaemonMetrics: every stock rule must be able to fire
// on some daemon. A manager and a benefactor booted as nvmstore boots them
// (DefaultRules on the monitor) carry a put, get and delete; the metric
// names their registries then hold seed two 2-sample series, one where
// nothing moves and one where everything saturates. A rule that reads the
// same (value, ok) over both reads nothing either daemon records, so it
// can never have data in a deployment.
func TestDefaultRulesReadDaemonMetrics(t *testing.T) {
	rules := obs.DefaultRules(obs.RuleDefaults{})
	mon := obs.MonitorConfig{SampleInterval: time.Second, Rules: rules}
	ms, err := NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin,
		ManagerConfig{Obs: obs.New("manager"), Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	ben, err := NewBenefactorServerWith("127.0.0.1:0", ms.Addr(), 0, 0, 64*testChunk, testChunk,
		benefactor.NewMem(), 50*time.Millisecond, BenefactorConfig{Obs: obs.New("benefactor-0"), Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer ben.Close()
	st, err := Open(ms.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := putFile(st, "f", pattern(1, 2*testChunk+5)); err != nil {
		t.Fatal(err)
	}
	if _, err := getFile(st, "f"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("f"); err != nil {
		t.Fatal(err)
	}

	idle := obs.Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	busy := obs.Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	for _, o := range []*obs.Obs{ms.Obs(), ben.Obs()} {
		snap := o.Reg.Snapshot()
		for name := range snap.Counters {
			idle.Counters[name], busy.Counters[name] = 0, 1e6
		}
		for name := range snap.Gauges {
			idle.Gauges[name], busy.Gauges[name] = 0, 1
		}
		for name, h := range snap.Histograms {
			full := make([]int64, len(h.Counts))
			full[len(full)-1] = 1e6 // the overflow bucket: off any budget's scale
			idle.Histograms[name] = obs.HistogramSnapshot{BoundsNanos: h.BoundsNanos, Counts: make([]int64, len(h.Counts))}
			busy.Histograms[name] = obs.HistogramSnapshot{Count: 1e6, BoundsNanos: h.BoundsNanos, Counts: full}
		}
	}
	series := func(last obs.Snapshot) *obs.Series {
		first := idle
		first.UnixNanos, last.UnixNanos = 1e9, 2e9
		ts := obs.NewSeries(2)
		ts.Add(first)
		ts.Add(last)
		return ts
	}
	quiet, saturated := series(idle), series(busy)
	for _, r := range rules {
		qv, qok := r.Value(quiet)
		sv, sok := r.Value(saturated)
		if qv == sv && qok == sok {
			t.Errorf("rule %q reads (%v, %v) both idle and saturated: no daemon records its metrics", r.Name, qv, qok)
		}
	}
}
