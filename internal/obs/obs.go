// Package obs is the zero-dependency observability layer of the aggregate
// NVM store: a concurrent metrics registry (counters, gauges, fixed-bucket
// latency histograms with quantile snapshots), a log/slog logger that is
// quiet until a daemon installs its own, and a bounded in-memory span ring
// holding hierarchical trace spans and state-change events (zero-duration
// spans). A span tree's trace ID travels the wire protocol
// (proto.ManagerReq/ChunkReq), so one traced operation can be followed from
// a client through the manager to each benefactor.
//
// Everything is nil-safe: a nil *Obs (or any nil handle obtained from one)
// turns every recording call into a no-op, so hot paths can be compiled
// with instrumentation unconditionally and a caller that wants zero
// overhead passes Disabled().
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Obs bundles one process's (or one component's) observability state: a
// metrics registry, a span ring, and a logger. Components receive a *Obs at
// construction and record into it; daemons expose it over the debug HTTP
// endpoint (ServeDebug).
type Obs struct {
	Reg *Registry
	Log *slog.Logger
	// Spans is the bounded buffer of completed hierarchical spans and
	// events, newest overwriting oldest (served at /spans).
	Spans *SpanRing
	// Slow is the flight recorder: root spans slower than the threshold
	// are copied here so stragglers survive span-ring churn.
	Slow *SpanRing

	// spansOverwritten counts entries Spans lost to wraparound
	// (obs.spans_overwritten): non-zero means a trace may be incomplete.
	spansOverwritten *Counter
	slowNanos        atomic.Int64
	sink             atomic.Value // spanSink

	// Continuous-monitoring state (StartMonitor): the time series of
	// periodic registry samples and the alert-rule evaluator whose firing
	// state degrades /healthz.
	ts      atomic.Pointer[Series]
	rules   atomic.Pointer[RuleSet]
	monMu   sync.Mutex
	monStop chan struct{}
	monWG   sync.WaitGroup

	// identity names this process's place in the cluster (shard i/n,
	// membership epoch) for /healthz bodies and incident bundles; a func so
	// the epoch stays live across membership bumps.
	identity atomic.Value // func() Identity
	// incidents is the optional incident recorder: rule firing edges (and
	// the /incidents/capture endpoint) snapshot diagnostic bundles to disk.
	incidents atomic.Pointer[IncidentRecorder]
}

// Identity names a daemon's place in the cluster: the node name, its
// metadata shard (Shard of NShards; NShards 0 means the process serves no
// shard) and the membership epoch it is operating under. It rides on
// unhealthy /healthz bodies so a 503 from a sharded fleet names which
// keyspace is degraded, and it stamps incident bundles.
type Identity struct {
	Node    string `json:"node,omitempty"`
	Shard   int    `json:"shard"`
	NShards int    `json:"n_shards,omitempty"`
	Epoch   int64  `json:"epoch,omitempty"`
}

// SetIdentityFunc installs the provider of this process's cluster
// identity. The func is called on every /healthz response and incident
// capture, so a manager can report its current membership epoch rather
// than the one at boot. Nil-safe.
func (o *Obs) SetIdentityFunc(fn func() Identity) {
	if o == nil {
		return
	}
	o.identity.Store(fn)
}

// Identity returns the process's cluster identity. Without an installed
// provider it degrades to the registry's node name.
func (o *Obs) Identity() Identity {
	if o == nil {
		return Identity{}
	}
	if v := o.identity.Load(); v != nil {
		if fn := v.(func() Identity); fn != nil {
			return fn()
		}
	}
	if o.Reg != nil {
		return Identity{Node: o.Reg.Node()}
	}
	return Identity{}
}

// SetIncidents installs (or with nil removes) the incident recorder.
// Once installed, every rule's pending→firing edge triggers an
// asynchronous bundle capture (deduplicated by the recorder's cooldown).
func (o *Obs) SetIncidents(ir *IncidentRecorder) {
	if o == nil {
		return
	}
	o.incidents.Store(ir)
}

// Incidents returns the installed incident recorder (nil without one).
func (o *Obs) Incidents() *IncidentRecorder {
	if o == nil {
		return nil
	}
	return o.incidents.Load()
}

// firingEdge hands one pending→firing transition to the incident
// recorder. Installed into every RuleSet the Obs runs.
func (o *Obs) firingEdge(a Alert) {
	if ir := o.incidents.Load(); ir != nil {
		ir.TriggerAsync("rule:" + a.Rule)
	}
}

// LevelOff is above every slog level: a handler at LevelOff logs nothing.
const LevelOff = slog.LevelError + 4

// quietLog is the logger New and Disabled hand out, so library users and
// tests stay silent unless a daemon installs its own. Never nil: a nil
// *slog.Logger panics.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: LevelOff}))

// New returns an enabled Obs: a fresh registry named node, a
// DefaultRingSpans-entry span ring, and the quiet logger.
func New(node string) *Obs {
	o := &Obs{
		Reg:   NewRegistry(node),
		Log:   quietLog,
		Spans: NewSpanRing(DefaultRingSpans),
		Slow:  NewSpanRing(DefaultSlowSpans),
	}
	o.spansOverwritten = o.Reg.Counter("obs.spans_overwritten")
	o.slowNanos.Store(int64(DefaultSlowThreshold))
	return o
}

// Disabled returns an Obs whose members are all nil but the quiet logger:
// every handle it hands out is nil and every recording call is a no-op.
// Used to measure (and avoid) instrumentation overhead.
func Disabled() *Obs { return &Obs{Log: quietLog} }

// Event records a state change (a death, a failover, a bad frame, ...) as
// a zero-duration span named comp.kind carrying detail, joined to trace
// when the change happened inside a traced op. Like IngestSpan it lands in
// the span ring only — the sink never fires, so an event stays on the node
// where it happened — and it gets no span ID: nothing parents under it.
// No-op when o is nil or disabled.
func (o *Obs) Event(comp, kind, trace, detail string) {
	if o == nil || o.Spans == nil {
		return
	}
	o.ingest(Span{Trace: trace, Name: comp + "." + kind, Detail: detail, StartNanos: time.Now().UnixNano()})
}

// MonitorConfig configures continuous self-monitoring: periodic registry
// sampling into a bounded time series, plus optional alert-rule
// evaluation on the same cadence.
type MonitorConfig struct {
	// SampleInterval is the snapshot cadence. Zero or negative disables
	// the monitor entirely.
	SampleInterval time.Duration
	// History is the number of samples retained (default
	// DefaultSeriesSamples).
	History int
	// Rules, when non-empty, are evaluated after every sample; firing
	// rules degrade /healthz to 503.
	Rules []Rule
}

// StartMonitor begins periodic registry sampling (and rule evaluation)
// on a background goroutine. Sampling is entirely off the hot path: the
// only cost visible to instrumented code is the atomic loads
// Registry.Snapshot always did. No-op on a nil/disabled Obs, a
// non-positive interval, or when a monitor is already running.
func (o *Obs) StartMonitor(cfg MonitorConfig) {
	if o == nil || o.Reg == nil || cfg.SampleInterval <= 0 {
		return
	}
	o.monMu.Lock()
	defer o.monMu.Unlock()
	if o.monStop != nil {
		return
	}
	o.ts.Store(NewSeries(cfg.History))
	if len(cfg.Rules) > 0 {
		o.SetRules(NewRuleSet(cfg.Rules...))
	}
	stop := make(chan struct{})
	o.monStop = stop
	o.monWG.Add(1)
	go func() {
		defer o.monWG.Done()
		t := time.NewTicker(cfg.SampleInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				o.Sample()
			}
		}
	}()
	o.Sample() // an immediate first sample so Window math has a base ASAP
}

// StopMonitor stops the sampling goroutine (idempotent). The series and
// rule state stay readable — a final view of the daemon's last window.
func (o *Obs) StopMonitor() {
	if o == nil {
		return
	}
	o.monMu.Lock()
	stop := o.monStop
	o.monStop = nil
	o.monMu.Unlock()
	if stop != nil {
		close(stop)
		o.monWG.Wait()
	}
}

// Sample takes one registry snapshot into the time series and evaluates
// the alert rules against it. The monitor goroutine calls it on its
// tick; tests call it directly for deterministic sequences.
func (o *Obs) Sample() Snapshot {
	if o == nil || o.Reg == nil {
		return Snapshot{}
	}
	snap := o.Reg.Snapshot()
	ts := o.ts.Load()
	ts.Add(snap)
	o.rules.Load().Eval(ts, snap.UnixNanos)
	return snap
}

// TimeSeries returns the monitor's sample series (nil before
// StartMonitor).
func (o *Obs) TimeSeries() *Series {
	if o == nil {
		return nil
	}
	return o.ts.Load()
}

// Rules returns the monitor's rule evaluator (nil when no rules are
// installed).
func (o *Obs) Rules() *RuleSet {
	if o == nil {
		return nil
	}
	return o.rules.Load()
}

// SetRules installs (or, with nil, removes) the rule evaluator.
func (o *Obs) SetRules(rs *RuleSet) {
	if o == nil {
		return
	}
	if rs == nil {
		o.rules.Store((*RuleSet)(nil))
		return
	}
	rs.SetOnFiring(o.firingEdge)
	o.rules.Store(rs)
}

// FiringAlerts returns the rules currently past their sustained
// duration — the set that makes /healthz report 503. Nil-safe; empty
// without rules.
func (o *Obs) FiringAlerts() []Alert {
	if o == nil {
		return nil
	}
	rs := o.rules.Load()
	if rs == nil {
		return nil
	}
	return rs.Firing()
}

// traceSeq disambiguates trace IDs generated within one process.
var traceSeq atomic.Uint64

// NewTraceID returns a fresh trace or span identifier: 16 hex digits mixing
// process randomness with a process-local sequence number, unique enough to
// follow one operation across the cluster's span rings.
func NewTraceID() string {
	return fmt.Sprintf("%016x", rand.Uint64()^(traceSeq.Add(1)<<48))
}
