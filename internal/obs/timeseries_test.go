package obs

import (
	"testing"
	"time"
)

// snapAt builds a minimal sample for series math tests.
func snapAt(t int64, counters map[string]int64) Snapshot {
	return Snapshot{Node: "t", UnixNanos: t, Counters: counters}
}

func TestSeriesWraparound(t *testing.T) {
	s := NewSeries(4)
	for i := int64(1); i <= 10; i++ {
		s.Add(snapAt(i, map[string]int64{"c": i * 100}))
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("Len after wrap = %d, want 4", got)
	}
	samples := s.Samples()
	if len(samples) != 4 {
		t.Fatalf("Samples = %d entries, want 4", len(samples))
	}
	// Oldest retained must be sample 7, newest sample 10, in order.
	for i, want := range []int64{7, 8, 9, 10} {
		if samples[i].UnixNanos != want {
			t.Fatalf("samples[%d].UnixNanos = %d, want %d", i, samples[i].UnixNanos, want)
		}
	}
	last, ok := s.Last()
	if !ok || last.UnixNanos != 10 {
		t.Fatalf("Last = %v/%v, want sample 10", last.UnixNanos, ok)
	}
}

func TestSeriesWindowSelection(t *testing.T) {
	s := NewSeries(8)
	// One sample per second at 1e9 nanos apart.
	for i := int64(0); i < 6; i++ {
		s.Add(snapAt(i*1e9, map[string]int64{"c": i * 10}))
	}
	// A 2s window from t=5s must pick t=3s as the base (newest sample at
	// least 2s older), not the oldest retained.
	o, n, ok := s.Window(2 * time.Second)
	if !ok {
		t.Fatal("Window not ok with 6 samples")
	}
	if n.UnixNanos != 5e9 || o.UnixNanos != 3e9 {
		t.Fatalf("Window(2s) = [%d, %d], want [3e9, 5e9]", o.UnixNanos, n.UnixNanos)
	}
	// A window longer than retained history falls back to the oldest.
	o, _, _ = s.Window(time.Hour)
	if o.UnixNanos != 0 {
		t.Fatalf("Window(1h) base = %d, want oldest (0)", o.UnixNanos)
	}
	// The counter moved 50-30=20 across the 2s window.
	o, n, _ = s.Window(2 * time.Second)
	if d := CounterDelta(o, n, "c"); d != 20 {
		t.Fatalf("CounterDelta over Window(2s) = %d, want 20", d)
	}
}

func TestSeriesWindowNeedsTwoSamples(t *testing.T) {
	var nilSeries *Series
	if _, _, ok := nilSeries.Window(time.Second); ok {
		t.Fatal("nil series Window ok")
	}
	s := NewSeries(4)
	s.Add(snapAt(1, nil))
	if _, _, ok := s.Window(time.Second); ok {
		t.Fatal("single-sample Window ok")
	}
}

func TestCounterReset(t *testing.T) {
	s := NewSeries(4)
	s.Add(snapAt(1e9, map[string]int64{"c": 1000}))
	// Daemon restarted: the counter starts over and reaches 40.
	s.Add(snapAt(2e9, map[string]int64{"c": 40}))
	o, n, ok := s.Window(time.Second)
	if !ok {
		t.Fatal("Window not ok with 2 samples")
	}
	if d := CounterDelta(o, n, "c"); d != 40 {
		t.Fatalf("CounterDelta across reset = %d, want 40 (post-reset value)", d)
	}
}

func TestWindowHistogram(t *testing.T) {
	h := newHistogram()
	h.Observe(2 * time.Microsecond)
	h.Observe(2 * time.Microsecond)
	older := Snapshot{UnixNanos: 1e9, Histograms: map[string]HistogramSnapshot{"lat": h.Snapshot()}}
	h.Observe(100 * time.Microsecond)
	h.Observe(100 * time.Microsecond)
	h.Observe(100 * time.Microsecond)
	newer := Snapshot{UnixNanos: 2e9, Histograms: map[string]HistogramSnapshot{"lat": h.Snapshot()}}

	w := WindowHistogram(older, newer, "lat")
	if w.Count != 3 {
		t.Fatalf("windowed Count = %d, want 3 (only the new observations)", w.Count)
	}
	wantSum := int64(3 * 100 * 1000)
	if w.SumNanos != wantSum {
		t.Fatalf("windowed SumNanos = %d, want %d", w.SumNanos, wantSum)
	}
	// The two early 2µs observations must not appear in any bucket.
	var total int64
	for _, c := range w.Counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("windowed bucket total = %d, want 3", total)
	}
	// p50 of the window must be near 100µs, not dragged down to 2µs.
	if w.P50Nanos < 64_000 {
		t.Fatalf("windowed P50 = %dns, want >= 64µs bucket", w.P50Nanos)
	}

	// Reset: the newer snapshot has fewer observations than the older one
	// (restart) — degrade to the newer cumulative, never negative buckets.
	fresh := newHistogram()
	fresh.Observe(time.Microsecond)
	reset := Snapshot{UnixNanos: 3e9, Histograms: map[string]HistogramSnapshot{"lat": fresh.Snapshot()}}
	w = WindowHistogram(newer, reset, "lat")
	if w.Count != 1 {
		t.Fatalf("post-reset windowed Count = %d, want 1 (newest cumulative)", w.Count)
	}
	for i, c := range w.Counts {
		if c < 0 {
			t.Fatalf("bucket %d negative after reset: %d", i, c)
		}
	}
}

func TestMaxQuantileOverWindow(t *testing.T) {
	fast, slow := newHistogram(), newHistogram()
	for i := 0; i < 10; i++ {
		fast.Observe(2 * time.Microsecond)
		slow.Observe(50 * time.Millisecond)
	}
	s := NewSeries(4)
	s.Add(Snapshot{UnixNanos: 1e9, Histograms: map[string]HistogramSnapshot{
		"op.a.latency": {}, "op.b.latency": {},
	}})
	s.Add(Snapshot{UnixNanos: 2e9, Histograms: map[string]HistogramSnapshot{
		"op.a.latency": fast.Snapshot(), "op.b.latency": slow.Snapshot(),
	}})
	v, ok := s.MaxQuantileOverWindow("op.", 0.99, time.Second)
	if !ok {
		t.Fatal("MaxQuantileOverWindow not ok")
	}
	if v < float64(16*time.Millisecond) {
		t.Fatalf("max p99 = %vns, want the slow histogram's (>= 16ms)", v)
	}
	if _, ok := s.MaxQuantileOverWindow("nosuch.", 0.99, time.Second); ok {
		t.Fatal("MaxQuantileOverWindow matched a non-existent prefix")
	}
}
