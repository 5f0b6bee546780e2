package obs

import (
	"sync"
	"time"
)

// Span is one timed node of a hierarchical trace. Spans minted on
// different machines share a Trace and are stitched into one tree by the
// collector (nvmctl trace) via the Parent links that travel the wire
// protocol. An event (Obs.Event) is a Span with no ID and no duration.
// Field layout is mirrored by proto.Span so the two convert directly; keep
// them identical.
type Span struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	// Name is "layer.op" (client.put, cache.get_chunk, pool.wait,
	// rpc.get_chunk, manager.create, benefactor.put, ssd.put) for a timed
	// span — the layer prefix drives the collector's per-layer time
	// breakdown — and "comp.kind" (manager.death, rpc.failover) for an
	// event.
	Name string `json:"name"`
	Node string `json:"node,omitempty"`
	// Var is the NVM variable (store file) the op is attributed to.
	Var string `json:"var,omitempty"`
	Err string `json:"err,omitempty"`
	// Detail is an event's human-readable text.
	Detail string `json:"detail,omitempty"`
	// StartNanos is substrate time: wall-clock Unix nanos on the real
	// path, virtual nanos since boot on the simulated path. Timestamps
	// from different nodes are only loosely comparable (clock skew);
	// durations are exact.
	StartNanos int64 `json:"start_nanos"`
	DurNanos   int64 `json:"dur_nanos"`
	Bytes      int64 `json:"bytes,omitempty"`
}

// Root reports whether the span is a trace root (no parent).
func (s Span) Root() bool { return s.Parent == "" }

// IsEvent reports whether the span is an event rather than a timed span:
// events carry no span ID.
func (s Span) IsEvent() bool { return s.ID == "" }

// End returns the span's end timestamp.
func (s Span) End() int64 { return s.StartNanos + s.DurNanos }

// DefaultRingSpans is the span capacity of rings made by New.
const DefaultRingSpans = 4096

// DefaultSlowSpans is the capacity of the slow-op flight recorder.
const DefaultSlowSpans = 256

// DefaultSlowThreshold is the root-span duration beyond which an op is
// copied to the flight recorder (SetSlowThreshold overrides).
const DefaultSlowThreshold = 50 * time.Millisecond

// SpanRing is a bounded concurrent buffer of completed spans, newest
// overwriting oldest.
type SpanRing struct {
	mu   sync.Mutex
	buf  []Span
	next int64
}

// NewSpanRing returns a ring holding the last capacity spans (min 16).
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 16 {
		capacity = 16
	}
	return &SpanRing{buf: make([]Span, 0, capacity)}
}

// Record appends one completed span and reports whether that overwrote the
// oldest retained one (no-op on a nil ring).
func (r *SpanRing) Record(s Span) (overwrote bool) {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next%int64(cap(r.buf))] = s
		overwrote = true
	}
	r.next++
	return overwrote
}

// Len returns the number of spans currently retained.
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Spans returns the retained spans, oldest first.
func (r *SpanRing) Spans() []Span {
	return r.Filter(func(Span) bool { return true })
}

// ByTrace returns the retained spans of one trace, oldest first.
func (r *SpanRing) ByTrace(trace string) []Span {
	return r.Filter(func(s Span) bool { return s.Trace == trace })
}

// Filter returns retained spans matching keep, oldest first.
func (r *SpanRing) Filter(keep func(Span) bool) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	start := r.next - int64(len(r.buf))
	if start < 0 {
		start = 0
	}
	for i := start; i < r.next; i++ {
		s := r.buf[i%int64(cap(r.buf))]
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// spanSink is the optional per-Obs hook fired on every locally recorded
// span (the rpc client uses it to export spans to the manager).
type spanSink func(Span)

// ActiveSpan is an in-progress span. A nil *ActiveSpan (from a disabled
// Obs) makes every method a no-op, so hot paths need no branches.
type ActiveSpan struct {
	o *Obs
	s Span
}

// StartSpan begins a span on the wall clock. An empty trace mints a fresh
// root trace (parent is ignored); otherwise the span joins trace under
// parent. Returns nil — a universal no-op — when o is nil or disabled.
func (o *Obs) StartSpan(trace, parent, name string) *ActiveSpan {
	if o == nil || o.Spans == nil {
		return nil
	}
	return o.StartSpanAt(trace, parent, name, time.Now().UnixNano())
}

// StartSpanAt begins a span at an explicit substrate timestamp (virtual
// time on the simulated path, a pre-captured wall instant on the real
// one).
func (o *Obs) StartSpanAt(trace, parent, name string, startNanos int64) *ActiveSpan {
	if o == nil || o.Spans == nil {
		return nil
	}
	if trace == "" {
		trace = NewTraceID()
		parent = ""
	}
	return &ActiveSpan{o: o, s: Span{
		Trace:      trace,
		ID:         NewTraceID(),
		Parent:     parent,
		Name:       name,
		StartNanos: startNanos,
	}}
}

// Trace returns the span's trace ID ("" on a nil span, which servers
// interpret as "untraced request").
func (a *ActiveSpan) Trace() string {
	if a == nil {
		return ""
	}
	return a.s.Trace
}

// ID returns the span's own ID ("" on a nil span).
func (a *ActiveSpan) ID() string {
	if a == nil {
		return ""
	}
	return a.s.ID
}

// SetVar attributes the span to an NVM variable (store file).
func (a *ActiveSpan) SetVar(v string) {
	if a == nil {
		return
	}
	a.s.Var = v
}

// SetErr records the op's failure on the span; nil err is a no-op.
func (a *ActiveSpan) SetErr(err error) {
	if a == nil || err == nil {
		return
	}
	a.s.Err = err.Error()
}

// AddBytes accumulates payload bytes moved by the op.
func (a *ActiveSpan) AddBytes(n int64) {
	if a == nil {
		return
	}
	a.s.Bytes += n
}

// End completes the span on the wall clock and records it.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.EndAt(time.Now().UnixNano())
}

// EndAt completes the span at an explicit substrate timestamp.
func (a *ActiveSpan) EndAt(nowNanos int64) {
	if a == nil {
		return
	}
	a.s.DurNanos = nowNanos - a.s.StartNanos
	if a.s.DurNanos < 0 {
		a.s.DurNanos = 0
	}
	a.o.RecordSpan(a.s)
}

// RecordSpan records one completed span: stamps the local node identity if
// the span has none, appends to the span ring, copies slow roots to the
// flight recorder, and fires the span sink. No-op when o is nil/disabled.
func (o *Obs) RecordSpan(s Span) {
	if o == nil || o.Spans == nil {
		return
	}
	// Stamp before the sink fires, not just inside ingest: an exported span
	// must carry this node's identity, or the ingesting daemon stamps its own.
	if s.Node == "" && o.Reg != nil {
		s.Node = o.Reg.Node()
	}
	o.ingest(s)
	if v := o.sink.Load(); v != nil {
		if fn := v.(spanSink); fn != nil {
			fn(s)
		}
	}
}

// IngestSpan records a span that originated elsewhere (a client's exported
// root arriving at the manager via OpReportSpans). Identical to RecordSpan
// except the sink is NOT fired — ingestion must never re-export.
func (o *Obs) IngestSpan(s Span) {
	if o == nil || o.Spans == nil {
		return
	}
	o.ingest(s)
}

func (o *Obs) ingest(s Span) {
	if s.Node == "" && o.Reg != nil {
		s.Node = o.Reg.Node()
	}
	if o.Spans.Record(s) {
		o.spansOverwritten.Inc()
	}
	if t := o.slowNanos.Load(); t > 0 && s.Root() && s.DurNanos >= t {
		o.Slow.Record(s)
	}
}

// SetSlowThreshold sets the root-span duration beyond which ops are copied
// to the flight recorder; zero or negative disables it.
func (o *Obs) SetSlowThreshold(d time.Duration) {
	if o == nil {
		return
	}
	o.slowNanos.Store(int64(d))
}

// SlowThreshold returns the current flight-recorder threshold.
func (o *Obs) SlowThreshold() time.Duration {
	if o == nil {
		return 0
	}
	return time.Duration(o.slowNanos.Load())
}

// SetSpanSink installs fn to observe every locally recorded span (nil
// uninstalls). Exactly one sink is active at a time; the sink runs on the
// recording goroutine and must not block.
func (o *Obs) SetSpanSink(fn func(Span)) {
	if o == nil {
		return
	}
	o.sink.Store(spanSink(fn))
}
