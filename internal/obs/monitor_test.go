package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestMonitorSampleAndVitals drives the monitor deterministically: an
// injected clock, manual Sample calls, and rule evaluation feeding Vitals.
func TestMonitorSampleAndVitals(t *testing.T) {
	o := New("mon-test")
	now := int64(1e9)
	o.Reg.SetClock(func() int64 { return now })

	o.ts.Store(NewSeries(16))
	o.SetRules(NewRuleSet(Rule{
		Name:      "backlog",
		Value:     GaugeValue("backlog"),
		Op:        Above,
		Threshold: 0,
		For:       2 * time.Second,
	}))

	c := o.Reg.Counter("work.done")
	g := o.Reg.Gauge("backlog")

	o.Sample() // t=1s: empty base sample
	now = 2e9
	c.Add(100)
	g.Set(5)
	o.Sample() // t=2s: condition begins (pending)
	if len(o.FiringAlerts()) != 0 {
		t.Fatal("fired before the sustain window")
	}
	now = 5e9
	c.Add(300)
	o.Sample() // t=5s: 3s since breach >= 2s sustain -> firing
	firing := o.FiringAlerts()
	if len(firing) != 1 || firing[0].Rule != "backlog" {
		t.Fatalf("FiringAlerts = %+v, want backlog firing", firing)
	}

	v := o.Vitals(10 * time.Second)
	if v.Healthy {
		t.Fatal("Vitals healthy while a rule fires")
	}
	if v.Samples != 3 {
		t.Fatalf("Vitals.Samples = %d, want 3", v.Samples)
	}
	// 400 counts over the 4s window.
	if got := v.Rates["work.done"]; got != 100 {
		t.Fatalf("windowed rate = %v, want 100/s", got)
	}
	if v.Gauges["backlog"] != 5 {
		t.Fatalf("Vitals gauge = %d, want 5", v.Gauges["backlog"])
	}
	if len(v.Alerts) != 1 || v.Alerts[0].State != "firing" {
		t.Fatalf("Vitals.Alerts = %+v, want one firing", v.Alerts)
	}
}

// TestVitalsWithoutMonitor degrades to lifetime averages over a fresh
// snapshot when no series exists.
func TestVitalsWithoutMonitor(t *testing.T) {
	o := New("bare")
	now := int64(0)
	o.Reg.SetClock(func() int64 { return now })
	o.Reg.Counter("c").Add(50)
	now = 10e9 // 10s of uptime
	v := o.Vitals(30 * time.Second)
	if !v.Healthy {
		t.Fatal("no rules must mean healthy")
	}
	if v.Samples != 0 {
		t.Fatalf("Samples = %d, want 0 without a monitor", v.Samples)
	}
	if got := v.Rates["c"]; got != 5 {
		t.Fatalf("lifetime rate = %v, want 5/s (50 over 10s)", got)
	}
}

func TestStartStopMonitor(t *testing.T) {
	o := New("loop")
	o.StartMonitor(MonitorConfig{SampleInterval: time.Millisecond, History: 8})
	defer o.StopMonitor()
	deadline := time.Now().Add(2 * time.Second)
	for o.TimeSeries().Len() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("monitor goroutine produced no samples")
		}
		time.Sleep(time.Millisecond)
	}
	o.StopMonitor()
	o.StopMonitor() // idempotent
	// The series stays readable after stop.
	if o.TimeSeries().Len() < 2 {
		t.Fatal("series lost after StopMonitor")
	}
	// Zero interval and nil obs are no-ops.
	o.StartMonitor(MonitorConfig{})
	var nilObs *Obs
	nilObs.StartMonitor(MonitorConfig{SampleInterval: time.Second})
	nilObs.StopMonitor()
}

// TestDebugEndpointsHealthDegradation exercises /metrics.prom, /vitals, and
// the /healthz 200 -> 503 flip over real HTTP.
func TestDebugEndpointsHealthDegradation(t *testing.T) {
	o := New("endpoint-test")
	o.Reg.Counter("work.done").Add(7)
	ds, err := ServeDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	// Prometheus exposition.
	resp, err := http.Get("http://" + ds.Addr() + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, PromContentType)
	}
	if !strings.Contains(string(body), `nvm_work_done_total{node="endpoint-test"} 7`) {
		t.Fatalf("/metrics.prom missing counter:\n%s", body)
	}

	// Healthy /healthz stays the plain-text 200 "ok" contract.
	healthy, firing, err := FetchHealth(ds.Addr())
	if err != nil || !healthy || len(firing) != 0 {
		t.Fatalf("FetchHealth healthy = %v/%v/%v, want true", healthy, firing, err)
	}

	// Install a firing rule: /healthz must flip to 503 naming it.
	o.ts.Store(gaugeSeries("backlog", 9))
	rs := NewRuleSet(Rule{Name: "backlog", Value: GaugeValue("backlog"), Op: Above, Threshold: 0})
	rs.Eval(o.TimeSeries(), 1e9)
	o.SetRules(rs)

	resp, err = http.Get("http://" + ds.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz status = %d, want 503", resp.StatusCode)
	}
	var hb struct {
		Status string  `json:"status"`
		Firing []Alert `json:"firing"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hb.Status != "unhealthy" || len(hb.Firing) != 1 || hb.Firing[0].Rule != "backlog" {
		t.Fatalf("healthz body = %+v, want unhealthy naming backlog", hb)
	}
	healthy, firing, err = FetchHealth(ds.Addr())
	if err != nil || healthy || len(firing) != 1 {
		t.Fatalf("FetchHealth = %v/%v/%v, want unhealthy with one alert", healthy, firing, err)
	}

	// /vitals round-trips through the scrape helper.
	v, err := FetchVitals(ds.Addr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Healthy {
		t.Fatal("/vitals healthy while backlog fires")
	}
	if len(v.Alerts) != 1 || v.Alerts[0].Rule != "backlog" {
		t.Fatalf("/vitals alerts = %+v, want the firing backlog rule", v.Alerts)
	}
}
