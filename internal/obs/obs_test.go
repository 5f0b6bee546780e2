package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one registry from 16 goroutines — handle
// creation, counter/gauge/histogram recording, and snapshots all racing —
// and verifies the totals. Run under -race this is the registry's
// thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	const (
		goroutines = 16
		opsEach    = 2000
	)
	r := NewRegistry("test")
	ring := NewSpanRing(256)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				// Half the goroutines re-look the handles up every time so
				// get-or-create races with recording.
				r.Counter("shared.counter").Inc()
				r.Gauge("shared.gauge").Add(1)
				r.Gauge("shared.peak").Max(int64(g*opsEach + i))
				r.Histogram("shared.latency").Observe(time.Duration(i) * time.Microsecond)
				ring.Record(Span{Trace: "tid", Name: "test.op", Detail: "detail"})
				if i%100 == 0 {
					s := r.Snapshot()
					if s.Counters["shared.counter"] < 0 {
						t.Error("negative counter in snapshot")
					}
					ring.Spans()
				}
			}
		}(g)
	}
	wg.Wait()

	total := int64(goroutines * opsEach)
	if got := r.Counter("shared.counter").Load(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := r.Gauge("shared.gauge").Load(); got != total {
		t.Errorf("gauge = %d, want %d", got, total)
	}
	wantPeak := int64((goroutines-1)*opsEach + opsEach - 1)
	if got := r.Gauge("shared.peak").Load(); got != wantPeak {
		t.Errorf("peak gauge = %d, want %d", got, wantPeak)
	}
	hs := r.Histogram("shared.latency").Snapshot()
	if hs.Count != total {
		t.Errorf("histogram count = %d, want %d", hs.Count, total)
	}
	if ring.Len() != 256 {
		t.Errorf("ring retained %d spans, want capacity 256", ring.Len())
	}
}

// TestHistogramQuantiles checks bucket placement, exact count/sum, and
// that quantile estimates land within the right power-of-two bucket.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	// 90 observations at ~100µs, 9 at ~1ms, 1 at ~10ms: p50 and p95 in the
	// 100µs bucket's range, p99 around 1ms.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(1 * time.Millisecond)
	}
	h.Observe(10 * time.Millisecond)

	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := int64(90*100_000 + 9*1_000_000 + 10_000_000)
	if s.SumNanos != wantSum {
		t.Fatalf("sum = %d, want %d", s.SumNanos, wantSum)
	}
	// 100µs lands in bucket (64µs, 128µs]; the estimate must stay within
	// that bucket.
	checkRange := func(name string, got time.Duration, lo, hi time.Duration) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %v, want within [%v, %v]", name, got, lo, hi)
		}
	}
	checkRange("p50", s.Quantile(0.50), 64*time.Microsecond, 128*time.Microsecond)
	checkRange("p95", s.Quantile(0.95), 512*time.Microsecond, 2*time.Millisecond)
	checkRange("p99", s.Quantile(0.99), 512*time.Microsecond, 2*time.Millisecond)
	checkRange("p100", s.Quantile(1.0), 8192*time.Microsecond, 16384*time.Microsecond)
	if got, want := s.Mean(), time.Duration(wantSum/100); got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram()
	h.Observe(0)                     // below 1µs → bucket 0
	h.Observe(999 * time.Nanosecond) // still bucket 0
	h.Observe(1 * time.Microsecond)  // exactly the first bound → bucket 1
	h.Observe(365 * 24 * time.Hour)  // way past the last bound → overflow
	s := h.Snapshot()
	if s.Counts[0] != 2 {
		t.Errorf("bucket 0 = %d, want 2", s.Counts[0])
	}
	if s.Counts[1] != 1 {
		t.Errorf("bucket 1 = %d, want 1", s.Counts[1])
	}
	if s.Counts[histBuckets-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", s.Counts[histBuckets-1])
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := newHistogram(), newHistogram()
	for i := 0; i < 50; i++ {
		a.Observe(100 * time.Microsecond)
		b.Observe(10 * time.Millisecond)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 100 {
		t.Fatalf("merged count = %d, want 100", m.Count)
	}
	// Half the mass at 100µs, half at 10ms: p50 at the boundary region,
	// p95 firmly in the 10ms bucket.
	if q := m.Quantile(0.95); q < 8*time.Millisecond || q > 16*time.Millisecond {
		t.Errorf("merged p95 = %v, want ~10ms", q)
	}
	if m.SumNanos != a.Snapshot().SumNanos+b.Snapshot().SumNanos {
		t.Errorf("merged sum mismatch")
	}
}

// TestNilSafety exercises every recording call against nil handles — the
// Disabled() zero-overhead mode must never panic.
func TestNilSafety(t *testing.T) {
	o := Disabled()
	o.Reg.Counter("x").Inc()
	o.Reg.Counter("x").Add(5)
	_ = o.Reg.Counter("x").Load()
	o.Reg.Gauge("y").Set(1)
	o.Reg.Gauge("y").Add(1)
	o.Reg.Gauge("y").Max(9)
	o.Reg.Histogram("z").Observe(time.Second)
	_ = o.Reg.Histogram("z").Snapshot()
	_ = o.Reg.Snapshot()
	o.Event("c", "k", "", "")
	o.Log.Info("hi", "k", "v")
	var nilObs *Obs
	nilObs.Event("c", "k", "", "")
}

func TestDebugServerEndpoints(t *testing.T) {
	o := New("unit")
	o.Reg.Counter("test.counter").Add(7)
	o.Reg.Histogram("test.latency").Observe(3 * time.Millisecond)
	o.Event("unit", "alloc", "tid-1", "file=x")
	o.Event("unit", "write", "tid-2", "file=y")
	o.RecordSpan(Span{Trace: "tid-2", ID: "s1", Name: "client.put", DurNanos: int64(time.Hour)})

	ds, err := ServeDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	snap, err := FetchMetrics(ds.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Node != "unit" {
		t.Errorf("node = %q, want unit", snap.Node)
	}
	if snap.Counters["test.counter"] != 7 {
		t.Errorf("scraped counter = %d, want 7", snap.Counters["test.counter"])
	}
	if h := snap.Histograms["test.latency"]; h.Count != 1 || h.P50Nanos <= 0 {
		t.Errorf("scraped histogram bad: %+v", h)
	}

	for _, c := range []struct {
		trace string
		slow  bool
		want  int
	}{
		{"", false, 3},
		{"tid-2", false, 2},
		{"", true, 1},
		// The trace ID is a query value, not query syntax: an unescaped one
		// would read the slow ring's tid-2 root here.
		{"tid-2&slow=1", false, 0},
	} {
		got, err := FetchSpans(ds.Addr(), c.trace, c.slow, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.want {
			t.Fatalf("spans(trace=%q slow=%v) = %+v, want %d entries", c.trace, c.slow, got, c.want)
		}
	}
	evs, err := FetchSpans(ds.Addr(), "tid-2", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev := evs[0]; !ev.IsEvent() || ev.Name != "unit.write" || ev.Detail != "file=y" || ev.Node != "unit" || ev.DurNanos != 0 {
		t.Fatalf("scraped event = %+v, want the zero-duration unit.write with its detail", ev)
	}

	resp, err := scrapeClient.Get("http://" + ds.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

// Microbenchmarks for the instrumentation primitives: these are the only
// costs the hot data path pays per chunk RPC, and they must stay in the
// nanoseconds so the <5% overhead budget on the TCP benches holds.
func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry("b").Counter("c")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry("b").Histogram("h")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(137 * time.Microsecond)
		}
	})
}
