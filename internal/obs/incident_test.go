package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sloSeries builds a deterministic counter series: each point is
// (unixSeconds, good total, bad total) for testSLO's counters.
func sloSeries(points [][3]int64) *Series {
	s := NewSeries(len(points))
	for _, p := range points {
		s.Add(Snapshot{
			UnixNanos: p[0] * 1e9,
			Counters:  map[string]int64{"manager.chunks_repaired": p[1], "manager.repair_failures": p[2]},
		})
	}
	return s
}

func testSLO() SLO {
	return SLO{
		Name:       "repair-slo-burn",
		Good:       "manager.chunks_repaired",
		Bad:        "manager.repair_failures",
		Target:     0.999,
		FastWindow: 5 * time.Second,
		SlowWindow: 60 * time.Second,
		MinEvents:  10,
	}
}

func TestSLOBurnRateFiresOnBothWindows(t *testing.T) {
	// A fresh outage: the last 5s are 100% errors, and the hour-scale
	// window has absorbed enough of them to burn too. Both windows far
	// exceed burn 14 against a 0.1% budget.
	r := testSLO().Rule()
	ts := sloSeries([][3]int64{
		{0, 0, 0},
		{30, 1000, 0},
		{55, 1000, 0},
		{60, 1000, 100},
	})
	val, ok := r.Value(ts)
	if !ok {
		t.Fatal("SLO rule had no data with full windows")
	}
	// Fast window (55s→60s): 100/100 errors → burn 1000. Slow window
	// (0→60s): 100/1100 → burn ≈ 90.9. The rule reports the minimum.
	if val < 80 || val > 100 {
		t.Fatalf("burn value %.3f, want min(fast,slow) ≈ 90.9", val)
	}
	rs := NewRuleSet(r)
	rs.Eval(ts, 60e9)
	if len(rs.Firing()) != 1 {
		t.Fatalf("SLO rule not firing at burn %.0f: %+v", val, rs.States())
	}
}

func TestSLOBurnRateFastWindowVetoesOldErrors(t *testing.T) {
	// The multi-window test: an old error burst still sits inside the slow
	// window, but the fast window is clean — the outage is over, so the
	// rule must NOT fire (this is what makes burn-rate alerts reset fast).
	r := testSLO().Rule()
	ts := sloSeries([][3]int64{
		{0, 0, 0},
		{5, 100, 50},
		{55, 1000, 50},
		{60, 1100, 50},
	})
	val, ok := r.Value(ts)
	if !ok {
		t.Fatal("SLO rule had no data")
	}
	if val != 0 {
		t.Fatalf("burn value %.3f with a clean fast window, want 0", val)
	}
	rs := NewRuleSet(r)
	rs.Eval(ts, 60e9)
	if len(rs.Firing()) != 0 {
		t.Fatalf("SLO fired on errors outside the fast window: %+v", rs.Firing())
	}
}

func TestSLOBurnRateMinEventsGuard(t *testing.T) {
	// 3 events, all errors, but under MinEvents: an idle service is not
	// out of budget — the rule must report no data, not a 1000x burn.
	r := testSLO().Rule()
	ts := sloSeries([][3]int64{
		{55, 0, 0},
		{60, 0, 3},
	})
	if _, ok := r.Value(ts); ok {
		t.Fatal("SLO rule reported data under the MinEvents floor")
	}
}

func TestSLODefaults(t *testing.T) {
	s := SLO{Name: "x", Good: "g", Bad: "b"}.withDefaults()
	if s.Target != 0.999 || s.SlowWindow != time.Hour || s.FastWindow != 5*time.Minute ||
		s.BurnThreshold != 14 || s.MinEvents != 20 {
		t.Fatalf("defaults = %+v", s)
	}
}

func TestRuleSetFiringEdgeHook(t *testing.T) {
	rs := NewRuleSet(Rule{
		Name:      "backlog",
		Value:     GaugeValue("g"),
		Op:        Above,
		Threshold: 0,
		For:       10 * time.Second,
	})
	var edges []Alert
	rs.SetOnFiring(func(a Alert) { edges = append(edges, a) })
	breach, clear := gaugeSeries("g", 5), gaugeSeries("g", 0)

	rs.Eval(breach, 1e9) // pending
	if len(edges) != 0 {
		t.Fatal("hook ran on a pending rule")
	}
	rs.Eval(breach, 12e9) // pending → firing: exactly one edge
	if len(edges) != 1 || edges[0].Rule != "backlog" || edges[0].State != "firing" {
		t.Fatalf("edges after firing = %+v", edges)
	}
	rs.Eval(breach, 20e9) // still firing: no repeat edge
	if len(edges) != 1 {
		t.Fatalf("hook re-ran while continuously firing: %d calls", len(edges))
	}
	rs.Eval(clear, 21e9)  // reset
	rs.Eval(breach, 22e9) // new pending
	rs.Eval(breach, 33e9) // second distinct edge
	if len(edges) != 2 {
		t.Fatalf("edges after refire = %d, want 2", len(edges))
	}
}

// quickIncidents returns a config that skips the CPU profile so unit
// tests don't each pay a multi-second profiling sleep.
func quickIncidents(dir string) IncidentConfig {
	return IncidentConfig{Dir: dir, CPUProfile: -1}
}

func TestIncidentCaptureAndCooldown(t *testing.T) {
	o := New("node-a")
	ts := NewSeries(4)
	ts.Add(Snapshot{UnixNanos: 1})
	ts.Add(Snapshot{UnixNanos: 2})
	o.ts.Store(ts)
	ir, err := NewIncidentRecorder(o, quickIncidents(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}

	meta, fresh, err := ir.Capture("drill", false)
	if err != nil || !fresh {
		t.Fatalf("first capture: fresh=%v err=%v", fresh, err)
	}
	if meta.Node != "node-a" || meta.Reason != "drill" {
		t.Fatalf("meta = %+v", meta)
	}
	need := map[string]bool{"goroutines.txt": false, "heap.pprof": false, "series.json": false, "meta.json": false}
	for _, f := range meta.Files {
		if f == "cpu.pprof" {
			t.Fatal("cpu.pprof written with CPUProfile < 0")
		}
		if _, ok := need[f]; ok {
			need[f] = true
		}
	}
	for f, ok := range need {
		if !ok {
			t.Fatalf("bundle missing %s (files %v)", f, meta.Files)
		}
	}

	// Inside the 10m default cooldown: the same bundle comes back.
	again, fresh, err := ir.Capture("drill-2", false)
	if err != nil || fresh || again.ID != meta.ID {
		t.Fatalf("cooldown capture: fresh=%v id=%s err=%v", fresh, again.ID, err)
	}
	if got := ir.List(); len(got) != 1 {
		t.Fatalf("cooldown still wrote a bundle: %d on disk", len(got))
	}
	// force punches through.
	time.Sleep(5 * time.Millisecond) // distinct millisecond → distinct bundle ID
	forced, fresh, err := ir.Capture("forced", true)
	if err != nil || !fresh || forced.ID == meta.ID {
		t.Fatalf("forced capture: fresh=%v id=%s err=%v", fresh, forced.ID, err)
	}
	list := ir.List()
	if len(list) != 2 || list[0].ID != forced.ID {
		t.Fatalf("List = %+v, want newest (forced) first", list)
	}
}

// TestIncidentBundleHoldsEvents: events live in the span ring, so the
// bundle a rule firing writes holds the state change that caused it.
func TestIncidentBundleHoldsEvents(t *testing.T) {
	o := New("manager")
	ir, err := NewIncidentRecorder(o, quickIncidents(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	o.Event("manager", "death", "", "benefactor 2 heartbeat expired")
	meta, _, err := ir.Capture("rule:under-replicated", false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(ir.Dir(), meta.ID, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		Name   string `json:"name"`
		Detail string `json:"detail"`
	}
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	for _, sp := range spans {
		if sp.Name == "manager.death" && sp.Detail == "benefactor 2 heartbeat expired" {
			return
		}
	}
	t.Fatalf("spans.json holds no manager.death event: %s", b)
}

func TestIncidentPruneBoundsRing(t *testing.T) {
	cfg := quickIncidents(t.TempDir())
	cfg.MaxBundles = 2
	ir, err := NewIncidentRecorder(New("node-a"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		m, _, err := ir.Capture("fill", true)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, m.ID)
		time.Sleep(5 * time.Millisecond)
	}
	list := ir.List()
	if len(list) != 2 {
		t.Fatalf("%d bundles on disk, want the 2 newest", len(list))
	}
	if list[0].ID != ids[3] || list[1].ID != ids[2] {
		t.Fatalf("kept %s,%s; want %s,%s", list[0].ID, list[1].ID, ids[3], ids[2])
	}
}

func TestIncidentTriggerAsyncDedupes(t *testing.T) {
	ir, err := NewIncidentRecorder(New("node-a"), quickIncidents(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ir.TriggerAsync("rule:backlog")
	}
	ir.Wait()
	list := ir.List()
	if len(list) != 1 {
		t.Fatalf("%d bundles after 5 triggers, want 1 (inflight+cooldown dedupe)", len(list))
	}
	if list[0].Reason != "rule:backlog" {
		t.Fatalf("reason %q", list[0].Reason)
	}
}

func TestObsFiringEdgeTriggersIncident(t *testing.T) {
	o := New("node-a")
	ir, err := NewIncidentRecorder(o, quickIncidents(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	o.SetIncidents(ir)
	rs := NewRuleSet(Rule{Name: "edge", Value: GaugeValue("g"), Op: Above, Threshold: 0})
	o.SetRules(rs) // wires the Obs firing-edge chain into the set

	rs.Eval(gaugeSeries("g", 7), 1e9) // For 0: first breach fires
	ir.Wait()
	list := ir.List()
	if len(list) != 1 || list[0].Reason != "rule:edge" {
		t.Fatalf("firing edge captured %+v, want one rule:edge bundle", list)
	}
}

// tarEntries decodes a tar.gz stream into a name → payload-size map.
func tarEntries(t *testing.T, r io.Reader) map[string]int64 {
	t.Helper()
	gz, err := gzip.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out[hdr.Name] = hdr.Size
	}
}

func TestIncidentWriteTarAndMerge(t *testing.T) {
	var parts []BundlePart
	var ids []string
	for _, node := range []string{"node-a", "node b/evil"} {
		ir, err := NewIncidentRecorder(New(node), quickIncidents(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ir.Capture("merge-test", true)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ir.WriteTar(&buf, m.ID); err != nil {
			t.Fatal(err)
		}
		ents := tarEntries(t, bytes.NewReader(buf.Bytes()))
		if sz, ok := ents[m.ID+"/meta.json"]; !ok || sz == 0 {
			t.Fatalf("tar of %s lacks meta.json: %v", m.ID, ents)
		}
		// Path-escape attempts must be rejected before touching the disk.
		for _, bad := range []string{"", "..", "a/b", `a\b`} {
			if err := ir.WriteTar(io.Discard, bad); err == nil {
				t.Fatalf("WriteTar accepted id %q", bad)
			}
		}
		if err := ir.WriteTar(io.Discard, "inc-nonexistent"); err == nil {
			t.Fatal("WriteTar succeeded for a missing bundle")
		}
		parts = append(parts, BundlePart{Node: node, R: bytes.NewReader(buf.Bytes())})
		ids = append(ids, m.ID)
	}

	var merged bytes.Buffer
	if err := MergeBundles(&merged, parts); err != nil {
		t.Fatal(err)
	}
	ents := tarEntries(t, &merged)
	// Node names are sanitized into the path prefix ("node b/evil" must
	// not create extra directory levels).
	for i, prefix := range []string{"node-a", "node_b_evil"} {
		want := prefix + "/" + ids[i] + "/meta.json"
		if _, ok := ents[want]; !ok {
			t.Fatalf("merged archive missing %s (have %v)", want, ents)
		}
	}
}
