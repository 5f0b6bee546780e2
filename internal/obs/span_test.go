package obs

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestSpanLifecycle: a root span mints its own trace, a child joins the
// parent's, and End lands both in the span ring with sane timing.
func TestSpanLifecycle(t *testing.T) {
	o := New("n1")
	root := o.StartSpanAt("", "ignored-parent", "client.put", 1000)
	if root.Trace() == "" || root.ID() == "" {
		t.Fatal("root span missing identity")
	}
	child := o.StartSpanAt(root.Trace(), root.ID(), "rpc.put_chunk", 1200)
	child.SetVar("v")
	child.AddBytes(64)
	child.AddBytes(36)
	child.SetErr(errors.New("boom"))
	child.EndAt(1500)
	root.EndAt(2000)

	spans := o.Spans.ByTrace(root.Trace())
	if len(spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1] // child ended first
	if c.Parent != r.ID || c.Trace != r.Trace {
		t.Fatalf("child not linked to root: %+v vs %+v", c, r)
	}
	if !r.Root() || c.Root() {
		t.Fatal("Root() misreports")
	}
	if c.DurNanos != 300 || r.DurNanos != 1000 {
		t.Fatalf("durations (%d, %d), want (300, 1000)", c.DurNanos, r.DurNanos)
	}
	if c.Bytes != 100 || c.Var != "v" || c.Err != "boom" {
		t.Fatalf("child attrs lost: %+v", c)
	}
	if r.Node != "n1" || c.Node != "n1" {
		t.Fatalf("node not stamped: %+v", c)
	}
	if c.End() != 1500 {
		t.Fatalf("End() = %d, want 1500", c.End())
	}
}

// TestSpanNegativeDurationClamped: a child clock running behind its start
// timestamp (skew, virtual-time replay) must not record a negative duration.
func TestSpanNegativeDurationClamped(t *testing.T) {
	o := New("n")
	sp := o.StartSpanAt("", "", "x", 5000)
	sp.EndAt(4000)
	if d := o.Spans.Spans()[0].DurNanos; d != 0 {
		t.Fatalf("duration = %d, want 0 (clamped)", d)
	}
}

// TestSpanRingOverflow: the ring keeps exactly the newest capacity spans,
// oldest-first, across several wraparounds.
func TestSpanRingOverflow(t *testing.T) {
	r := NewSpanRing(16)
	for i := 0; i < 50; i++ {
		r.Record(Span{ID: fmt.Sprintf("s%d", i), StartNanos: int64(i)})
	}
	got := r.Spans()
	if len(got) != 16 || r.Len() != 16 {
		t.Fatalf("retained %d spans, want 16", len(got))
	}
	for i, sp := range got {
		if want := int64(34 + i); sp.StartNanos != want {
			t.Fatalf("slot %d holds start %d, want %d", i, sp.StartNanos, want)
		}
	}
	// Below-minimum capacities clamp rather than wedge.
	small := NewSpanRing(0)
	for i := 0; i < 20; i++ {
		small.Record(Span{})
	}
	if small.Len() != 16 {
		t.Fatalf("min-capacity ring retained %d, want 16", small.Len())
	}
}

// TestSlowRing: only roots at or over the threshold are copied to the
// flight recorder, and they survive the main ring wrapping.
func TestSlowRing(t *testing.T) {
	o := New("n")
	o.SetSlowThreshold(100 * time.Nanosecond)
	if o.SlowThreshold() != 100*time.Nanosecond {
		t.Fatal("threshold not stored")
	}
	o.RecordSpan(Span{Trace: "a", ID: "1", Name: "client.put", DurNanos: 99})           // fast root
	o.RecordSpan(Span{Trace: "a", ID: "2", Name: "client.put", DurNanos: 150})          // slow root
	o.RecordSpan(Span{Trace: "a", ID: "3", Parent: "2", Name: "rpc.x", DurNanos: 5000}) // slow child: not a root
	if got := o.Slow.Spans(); len(got) != 1 || got[0].ID != "2" {
		t.Fatalf("slow ring = %+v, want just span 2", got)
	}
	// Churn the main ring far past capacity; the slow copy must persist.
	for i := 0; i < DefaultRingSpans+10; i++ {
		o.RecordSpan(Span{Trace: "b", ID: fmt.Sprintf("c%d", i), DurNanos: 1})
	}
	if len(o.Spans.ByTrace("a")) != 0 {
		t.Fatal("main ring should have wrapped past trace a")
	}
	if got := o.Slow.Spans(); len(got) != 1 || got[0].ID != "2" {
		t.Fatalf("slow ring lost its span after churn: %+v", got)
	}
	o.SetSlowThreshold(0)
	o.RecordSpan(Span{Trace: "c", ID: "z", DurNanos: int64(time.Hour)})
	if len(o.Slow.Spans()) != 1 {
		t.Fatal("disabled threshold still recorded a slow span")
	}
}

// TestSpanSink: the sink observes locally recorded spans but never ingested
// ones or events — that asymmetry is what stops a manager re-exporting spans
// a client just exported to it, and keeps events on the node they describe.
func TestSpanSink(t *testing.T) {
	o := New("n")
	var seen []Span
	o.SetSpanSink(func(s Span) { seen = append(seen, s) })
	o.RecordSpan(Span{Trace: "t", ID: "local"})
	o.IngestSpan(Span{Trace: "t", ID: "remote"})
	o.Event("rpc", "failover", "t", "read served by replica 1")
	if len(seen) != 1 || seen[0].ID != "local" {
		t.Fatalf("sink saw %v, want [local] only", seen)
	}
	if seen[0].Node != "n" {
		t.Fatalf("exported span carries node %q, want the local identity", seen[0].Node)
	}
	got := o.Spans.ByTrace("t")
	if len(got) != 3 {
		t.Fatalf("ring retained %d entries, want all three", len(got))
	}
	if ev := got[2]; !ev.IsEvent() || ev.Name != "rpc.failover" || ev.Node != "n" || ev.DurNanos != 0 {
		t.Fatalf("event recorded as %+v, want a zero-duration rpc.failover on n", ev)
	}
	o.SetSpanSink(nil)
	o.RecordSpan(Span{Trace: "t", ID: "after"})
	if len(seen) != 1 {
		t.Fatal("uninstalled sink still fired")
	}
}

// TestSpanNilSafety: disabled observability must make every span operation
// an inert no-op — nil *ActiveSpan methods, recording, thresholds, sinks.
func TestSpanNilSafety(t *testing.T) {
	o := Disabled()
	sp := o.StartSpan("", "", "client.put")
	if sp != nil {
		t.Fatal("disabled Obs minted a span")
	}
	if sp.Trace() != "" || sp.ID() != "" {
		t.Fatal("nil span leaked identity")
	}
	sp.SetVar("v")
	sp.SetErr(errors.New("x"))
	sp.AddBytes(1)
	sp.End()
	sp.EndAt(5)
	o.RecordSpan(Span{ID: "a"})
	o.IngestSpan(Span{ID: "b"})
	o.SetSlowThreshold(time.Second)
	_ = o.SlowThreshold()
	o.SetSpanSink(func(Span) {})

	var nilObs *Obs
	if nilObs.StartSpan("", "", "x") != nil {
		t.Fatal("nil Obs minted a span")
	}
	nilObs.RecordSpan(Span{})
	nilObs.IngestSpan(Span{})
	nilObs.SetSlowThreshold(time.Second)
	_ = nilObs.SlowThreshold()
	nilObs.SetSpanSink(nil)

	var nilRing *SpanRing
	nilRing.Record(Span{})
	if nilRing.Len() != 0 || nilRing.Spans() != nil || nilRing.ByTrace("t") != nil {
		t.Fatal("nil SpanRing not inert")
	}
}

// TestSpansOverwrittenCounted: every entry the span ring loses to
// wraparound — a recorded span, an ingested one, or an event — counts in
// obs.spans_overwritten, so "is the trace incomplete" is one number.
func TestSpansOverwrittenCounted(t *testing.T) {
	o := New("n")
	lost := o.Reg.Counter("obs.spans_overwritten")
	for i := 0; i < DefaultRingSpans; i++ {
		o.RecordSpan(Span{Trace: "t", ID: fmt.Sprintf("s%d", i)})
	}
	if got := lost.Load(); got != 0 {
		t.Fatalf("a ring filled to capacity counted %d overwrites", got)
	}
	o.RecordSpan(Span{Trace: "t", ID: "local"})
	o.IngestSpan(Span{Trace: "t", ID: "remote"})
	o.Event("manager", "death", "", "benefactor 1 heartbeat expired")
	if got := lost.Load(); got != 3 {
		t.Fatalf("obs.spans_overwritten = %d after 3 records past capacity, want 3", got)
	}
}

// TestHistogramMergeEmpty: merging with an empty snapshot (either side, or
// both) must be the identity, not corrupt quantiles.
func TestHistogramMergeEmpty(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	var empty HistogramSnapshot
	if m := s.Merge(empty); m.Count != 10 || m.SumNanos != s.SumNanos || m.P95Nanos != s.P95Nanos {
		t.Fatalf("merge with empty changed the snapshot: %+v", m)
	}
	if m := empty.Merge(s); m.Count != 10 || m.P95Nanos != s.P95Nanos {
		t.Fatalf("empty.Merge(s) lost data: %+v", m)
	}
	if m := empty.Merge(HistogramSnapshot{}); m.Count != 0 {
		t.Fatalf("empty-empty merge = %+v", m)
	}
}

// TestHistogramMergeMismatched: a snapshot from a node running a different
// build may carry a different bucket count; merging must stay in bounds and
// keep the receiver's geometry.
func TestHistogramMergeMismatched(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 4; i++ {
		h.Observe(10 * time.Millisecond)
	}
	s := h.Snapshot()
	longer := HistogramSnapshot{
		Count:       3,
		SumNanos:    3 * int64(time.Second),
		BoundsNanos: append(append([]int64(nil), s.BoundsNanos...), int64(time.Hour)),
		Counts:      make([]int64, len(s.Counts)+4),
	}
	longer.Counts[len(longer.Counts)-1] = 3 // mass beyond the receiver's buckets
	m := s.Merge(longer)
	if m.Count != 7 {
		t.Fatalf("merged count = %d, want 7", m.Count)
	}
	if len(m.Counts) != len(s.Counts) || len(m.BoundsNanos) != len(s.BoundsNanos) {
		t.Fatalf("merged geometry changed: %d buckets", len(m.Counts))
	}
	shorter := HistogramSnapshot{
		Count:    2,
		SumNanos: 2 * int64(time.Millisecond),
		Counts:   []int64{2},
	}
	m = s.Merge(shorter)
	if m.Count != 6 || m.Counts[0] != s.Counts[0]+2 {
		t.Fatalf("short merge mis-aggregated: %+v", m)
	}
}
