package obs

import "time"

// Vitals is one daemon's self-described windowed health view, served at
// /vitals: per-second counter rates and windowed histograms computed from
// the daemon's own time series (so a single scrape yields rates — no
// client-side delta bookkeeping), the latest gauges, and the alert-rule
// state. Windowed histograms merge across daemons with
// HistogramSnapshot.Merge, which is how nvmctl watch renders cluster
// percentiles over the last N seconds.
type Vitals struct {
	Node          string  `json:"node"`
	UnixNanos     int64   `json:"unix_nanos"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// WindowSeconds is the actual span the rates and histograms cover: the
	// requested window clipped to retained history, or the whole uptime
	// when the daemon runs without a monitor (lifetime averages then).
	WindowSeconds float64 `json:"window_seconds"`
	// Samples is the number of time-series samples retained (0 means no
	// monitor — the vitals degrade to lifetime averages).
	Samples int                          `json:"samples"`
	Rates   map[string]float64           `json:"rates"`
	Gauges  map[string]int64             `json:"gauges"`
	Hists   map[string]HistogramSnapshot `json:"hists"`
	// Alerts are the rules whose condition currently holds, pending and
	// firing both. Healthy is false only when at least one is firing.
	Alerts  []Alert `json:"alerts,omitempty"`
	Healthy bool    `json:"healthy"`
}

// Vitals computes the daemon's windowed view. With a running monitor the
// rates/histograms cover the last `window` of the sample series; without
// one they degrade to lifetime averages, the same formulas over an empty
// base and a live snapshot, so the endpoint is useful (if less sharp) on
// daemons running without sampling.
func (o *Obs) Vitals(window time.Duration) Vitals {
	v := Vitals{Healthy: true}
	if o == nil || o.Reg == nil {
		return v
	}
	if rs := o.rules.Load(); rs != nil {
		v.Alerts = rs.States()
		v.Healthy = rs.Healthy()
	}
	ts := o.ts.Load()
	v.Samples = ts.Len()
	older, newest, ok := ts.Window(window)
	if ok {
		v.WindowSeconds = float64(newest.UnixNanos-older.UnixNanos) / 1e9
	} else {
		// No series (or a single sample): older stays empty, so the deltas
		// below are the live snapshot's lifetime totals.
		newest = o.Reg.Snapshot()
		v.WindowSeconds = newest.UptimeSeconds
	}
	v.Node = newest.Node
	v.UnixNanos = newest.UnixNanos
	v.UptimeSeconds = newest.UptimeSeconds
	v.Rates = make(map[string]float64, len(newest.Counters))
	if v.WindowSeconds > 0 {
		for name := range newest.Counters {
			v.Rates[name] = float64(CounterDelta(older, newest, name)) / v.WindowSeconds
		}
	}
	v.Gauges = newest.Gauges
	v.Hists = make(map[string]HistogramSnapshot, len(newest.Histograms))
	for name := range newest.Histograms {
		if h := WindowHistogram(older, newest, name); h.Count > 0 {
			v.Hists[name] = h
		}
	}
	return v
}
