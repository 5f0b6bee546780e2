package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// RuleOp is the comparison a Rule applies between its observed value and
// its threshold.
type RuleOp int

const (
	// Above triggers when value > threshold.
	Above RuleOp = iota
	// Below triggers when value < threshold.
	Below
)

// String returns the comparison glyph for export.
func (op RuleOp) String() string {
	if op == Below {
		return "<"
	}
	return ">"
}

// Rule is one declarative health condition evaluated against a Series on
// every monitor sample. A rule whose condition holds continuously for at
// least For fires; any single evaluation where the condition does not
// hold (or has no data) clears both the pending timer and the firing
// state. Firing rules degrade the daemon's /healthz from 200 to 503.
type Rule struct {
	// Name identifies the rule in healthz bodies and nvmctl watch
	// ("under-replicated", "heartbeat-stale", ...).
	Name string
	// Detail is a human explanation of what the condition means and what
	// to do about it.
	Detail string
	// Value extracts the rule's observable from the series. ok=false
	// means "no data" and never triggers (a fresh daemon with an empty
	// series is healthy, not alerting).
	Value func(ts *Series) (val float64, ok bool)
	// Op compares the value against Threshold.
	Op RuleOp
	// Threshold is the boundary the value must cross to trigger.
	Threshold float64
	// For is the sustained duration: how long the condition must hold
	// continuously before the rule fires. Zero fires on the first breach.
	For time.Duration
}

// breached reports whether val crosses the rule's threshold.
func (r Rule) breached(val float64) bool {
	if r.Op == Below {
		return val < r.Threshold
	}
	return val > r.Threshold
}

// Alert is the export form of a rule whose condition currently holds.
// State is "pending" while the condition is younger than the rule's
// sustained duration and "firing" once it exceeds it; only firing alerts
// degrade /healthz.
type Alert struct {
	Rule                 string  `json:"rule"`
	State                string  `json:"state"`
	Detail               string  `json:"detail,omitempty"`
	Value                float64 `json:"value"`
	Op                   string  `json:"op"`
	Threshold            float64 `json:"threshold"`
	SinceUnixNanos       int64   `json:"since_unix_nanos"`
	FiringSinceUnixNanos int64   `json:"firing_since_unix_nanos,omitempty"`
}

// ruleState is one rule's evaluation history.
type ruleState struct {
	condSince   int64 // when the condition started holding; 0 = not holding
	firingSince int64 // when the rule crossed its For duration; 0 = not firing
	lastVal     float64
}

// RuleSet evaluates a fixed set of rules over a series and retains their
// pending/firing state. Eval runs on the monitor goroutine; Firing and
// States are read concurrently by the debug endpoints.
type RuleSet struct {
	mu    sync.Mutex
	rules []Rule
	st    []ruleState

	// onFiring observes every pending→firing transition (incident capture,
	// paging hooks). Called outside the lock, on the Eval caller's
	// goroutine, once per edge.
	onFiring atomic.Value // func(Alert)
}

// SetOnFiring installs a hook invoked once for each rule's pending→firing
// transition, after the evaluation that crossed the edge completes.
func (rs *RuleSet) SetOnFiring(fn func(Alert)) {
	if rs == nil {
		return
	}
	rs.onFiring.Store(fn)
}

// NewRuleSet returns an evaluator over rules. Rules without a Value func
// are dropped (they could never trigger).
func NewRuleSet(rules ...Rule) *RuleSet {
	kept := make([]Rule, 0, len(rules))
	for _, r := range rules {
		if r.Value != nil {
			kept = append(kept, r)
		}
	}
	return &RuleSet{rules: kept, st: make([]ruleState, len(kept))}
}

// Eval evaluates every rule against ts at nowNanos, advancing pending →
// firing transitions and clearing rules whose condition no longer holds.
func (rs *RuleSet) Eval(ts *Series, nowNanos int64) {
	if rs == nil {
		return
	}
	var edges []Alert
	rs.mu.Lock()
	for i, r := range rs.rules {
		st := &rs.st[i]
		val, ok := r.Value(ts)
		if !ok || !r.breached(val) {
			st.condSince, st.firingSince, st.lastVal = 0, 0, val
			continue
		}
		st.lastVal = val
		if st.condSince == 0 {
			st.condSince = nowNanos
		}
		if st.firingSince == 0 && nowNanos-st.condSince >= r.For.Nanoseconds() {
			st.firingSince = nowNanos
			edges = append(edges, Alert{
				Rule:                 r.Name,
				State:                "firing",
				Detail:               r.Detail,
				Value:                val,
				Op:                   r.Op.String(),
				Threshold:            r.Threshold,
				SinceUnixNanos:       st.condSince,
				FiringSinceUnixNanos: st.firingSince,
			})
		}
	}
	rs.mu.Unlock()
	if len(edges) > 0 {
		if v := rs.onFiring.Load(); v != nil {
			if fn := v.(func(Alert)); fn != nil {
				for _, a := range edges {
					fn(a)
				}
			}
		}
	}
}

// States returns every rule whose condition currently holds — pending and
// firing — for display surfaces (nvmctl watch, /vitals).
func (rs *RuleSet) States() []Alert {
	return rs.alerts(false)
}

// Firing returns only the rules past their sustained duration — the set
// that degrades /healthz.
func (rs *RuleSet) Firing() []Alert {
	return rs.alerts(true)
}

func (rs *RuleSet) alerts(firingOnly bool) []Alert {
	if rs == nil {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []Alert
	for i, r := range rs.rules {
		st := rs.st[i]
		if st.condSince == 0 || (firingOnly && st.firingSince == 0) {
			continue
		}
		a := Alert{
			Rule:                 r.Name,
			State:                "pending",
			Detail:               r.Detail,
			Value:                st.lastVal,
			Op:                   r.Op.String(),
			Threshold:            r.Threshold,
			SinceUnixNanos:       st.condSince,
			FiringSinceUnixNanos: st.firingSince,
		}
		if st.firingSince != 0 {
			a.State = "firing"
		}
		out = append(out, a)
	}
	return out
}

// Healthy reports whether no rule is firing.
func (rs *RuleSet) Healthy() bool {
	if rs == nil {
		return true
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, st := range rs.st {
		if st.firingSince != 0 {
			return false
		}
	}
	return true
}

// GaugeValue observes the named gauge's latest sample.
func GaugeValue(name string) func(*Series) (float64, bool) {
	return func(ts *Series) (float64, bool) {
		v, ok := ts.GaugeLast(name)
		return float64(v), ok
	}
}

// MaxQuantileNanos observes the worst windowed q-quantile (nanoseconds)
// across histograms sharing a name prefix.
func MaxQuantileNanos(prefix string, q float64, window time.Duration) func(*Series) (float64, bool) {
	return func(ts *Series) (float64, bool) {
		return ts.MaxQuantileOverWindow(prefix, q, window)
	}
}

// SLO is the error-budget form of a health condition: "fraction Target of
// events must succeed". It compiles (via Rule) into a multi-window
// burn-rate rule over a good-event counter and a bad-event counter: the
// burn rate over a window is the observed error fraction divided by the
// budget (1−Target), so burn 1 exhausts the budget exactly at the SLO
// period's end, and burn 14 torches ~1.6% of a 30-day budget in an hour —
// page-worthy. Requiring BOTH a fast and a slow window above the
// threshold (the standard SRE multi-window test) makes the rule reset
// quickly once the outage ends while staying deaf to one-sample blips.
type SLO struct {
	// Name and Detail carry through to the generated Rule.
	Name   string
	Detail string
	// Good and Bad are counter names: successes and failures of the
	// guarded operation (e.g. manager.chunks_repaired /
	// manager.repair_failures).
	Good string
	Bad  string
	// Target is the availability objective in (0,1), e.g. 0.999.
	Target float64
	// SlowWindow is the long lookback; FastWindow the short one
	// (default SlowWindow/12, echoing the 1h/5m pairing).
	SlowWindow time.Duration
	FastWindow time.Duration
	// BurnThreshold is the burn rate both windows must exceed
	// (default 14).
	BurnThreshold float64
	// MinEvents is the minimum good+bad events inside the fast window
	// before the rule has data (default 20) — an idle service isn't out
	// of budget.
	MinEvents int64
	// For is the sustained duration before firing (zero fires on the
	// first breached evaluation — the windows already debounce).
	For time.Duration
}

func (s SLO) withDefaults() SLO {
	if s.Target <= 0 || s.Target >= 1 {
		s.Target = 0.999
	}
	if s.SlowWindow <= 0 {
		s.SlowWindow = time.Hour
	}
	if s.FastWindow <= 0 {
		s.FastWindow = s.SlowWindow / 12
	}
	if s.BurnThreshold <= 0 {
		s.BurnThreshold = 14
	}
	if s.MinEvents <= 0 {
		s.MinEvents = 20
	}
	return s
}

// burnOver computes the burn rate over one window: error fraction divided
// by the error budget. ok=false when the window lacks samples or events.
func (s SLO) burnOver(ts *Series, window time.Duration) (float64, bool) {
	o, n, ok := ts.Window(window)
	if !ok {
		return 0, false
	}
	good := CounterDelta(o, n, s.Good)
	bad := CounterDelta(o, n, s.Bad)
	if good+bad < s.MinEvents {
		return 0, false
	}
	frac := float64(bad) / float64(good+bad)
	return frac / (1 - s.Target), true
}

// Rule compiles the SLO into a threshold Rule whose value is
// min(burn(fast), burn(slow)): with Op Above, the rule triggers only when
// BOTH windows burn past the threshold.
func (s SLO) Rule() Rule {
	s = s.withDefaults()
	detail := s.Detail
	if detail == "" {
		detail = fmt.Sprintf("%s SLO %.4g%% burning >%.3gx over %s and %s windows",
			s.Name, s.Target*100, s.BurnThreshold, s.FastWindow, s.SlowWindow)
	}
	return Rule{
		Name:   s.Name,
		Detail: detail,
		Value: func(ts *Series) (float64, bool) {
			fast, ok := s.burnOver(ts, s.FastWindow)
			if !ok {
				return 0, false
			}
			slow, ok := s.burnOver(ts, s.SlowWindow)
			if !ok {
				return 0, false
			}
			if slow < fast {
				return slow, true
			}
			return fast, true
		},
		Op:        Above,
		Threshold: s.BurnThreshold,
		For:       s.For,
	}
}

// RuleDefaults parameterizes DefaultRules.
type RuleDefaults struct {
	// HeartbeatTimeout is the manager's liveness bound; the
	// heartbeat-stale rule fires when the stalest live benefactor exceeds
	// it. Zero gets the manager default (5s).
	HeartbeatTimeout time.Duration
	// Sustain is the default sustained duration for trend rules
	// (under-replication, latency). Zero gets 30s.
	Sustain time.Duration
	// Window is the burn-rate/quantile lookback. Zero gets 30s.
	Window time.Duration
	// P99Budget is the per-op latency budget the p99 rules enforce. Zero
	// gets 250ms.
	P99Budget time.Duration
}

func (d RuleDefaults) withDefaults() RuleDefaults {
	if d.HeartbeatTimeout <= 0 {
		d.HeartbeatTimeout = 5 * time.Second
	}
	if d.Sustain <= 0 {
		d.Sustain = 30 * time.Second
	}
	if d.Window <= 0 {
		d.Window = 30 * time.Second
	}
	if d.P99Budget <= 0 {
		d.P99Budget = 250 * time.Millisecond
	}
	return d
}

// DefaultRules returns the stock health rules. The set is
// role-independent: each rule observes metrics only a manager or a
// benefactor records, and a rule whose metrics a process never touches
// simply has no data and never triggers, so every daemon can install the
// full set.
func DefaultRules(d RuleDefaults) []Rule {
	d = d.withDefaults()
	return []Rule{
		{
			Name:      "under-replicated",
			Detail:    "chunks below the replica target; run `nvmctl repair`",
			Value:     GaugeValue("manager.under_replicated"),
			Op:        Above,
			Threshold: 0,
			For:       d.Sustain,
		},
		{
			Name:      "heartbeat-stale",
			Detail:    "a live benefactor's heartbeat is older than the death timeout",
			Value:     GaugeValue("manager.max_beat_age_nanos"),
			Op:        Above,
			Threshold: float64(d.HeartbeatTimeout.Nanoseconds()),
		},
		{
			Name:      "manager-op-p99",
			Detail:    "a manager op's windowed p99 latency exceeds the budget",
			Value:     MaxQuantileNanos("manager.op.", 0.99, d.Window),
			Op:        Above,
			Threshold: float64(d.P99Budget.Nanoseconds()),
			For:       d.Sustain,
		},
		{
			Name:      "benefactor-op-p99",
			Detail:    "a benefactor op's windowed p99 latency exceeds the budget",
			Value:     MaxQuantileNanos("benefactor.op.", 0.99, d.Window),
			Op:        Above,
			Threshold: float64(d.P99Budget.Nanoseconds()),
			For:       d.Sustain,
		},
		SLO{
			Name:       "repair-slo-burn",
			Detail:     "re-replication repairs are burning the 99% success budget across both windows",
			Good:       "manager.chunks_repaired",
			Bad:        "manager.repair_failures",
			Target:     0.99,
			SlowWindow: d.Window,
		}.Rule(),
	}
}
