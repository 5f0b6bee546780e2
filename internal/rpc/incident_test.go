package rpc

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/obs"
)

// healthzView mirrors the unhealthy /healthz JSON body.
type healthzView struct {
	Status string      `json:"status"`
	Node   string      `json:"node"`
	Shard  string      `json:"shard"`
	Epoch  int64       `json:"epoch"`
	Firing []obs.Alert `json:"firing"`
}

// fetchHealthz does a raw /healthz GET and decodes the JSON body (only
// present on 503s).
func fetchHealthz(t *testing.T, addr string) (int, healthzView) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatalf("healthz %s: %v", addr, err)
	}
	defer resp.Body.Close()
	var v healthzView
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("healthz %s: decode: %v", addr, err)
		}
	}
	return resp.StatusCode, v
}

// TestActiveObservabilityEndToEnd is the full incident drill the active
// observability stack exists for: a 2-shard cluster with the canary
// prober running loses its only benefactor. The client's probe SLO
// burn-rate rule must fire, every manager's /healthz must degrade to a
// 503 naming its shard identity, each manager must write exactly one
// incident bundle (cooldown dedupes repeat firings), and the per-daemon
// bundles must merge into one cluster-wide archive — the `nvmctl bundle`
// path, driven through the same library calls.
func TestActiveObservabilityEndToEnd(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	var mgrs []*ManagerServer
	var addrs []string
	for i := 0; i < 2; i++ {
		ms, err := NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin, ManagerConfig{
			ShardIndex:       i,
			ShardCount:       2,
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
			// A short CPU profile keeps the capture (and the test) fast;
			// the default 10m cooldown is the one-bundle-per-incident
			// guarantee under test.
			Incidents: obs.IncidentConfig{Dir: dirs[i], CPUProfile: 100 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		mgrs = append(mgrs, ms)
		addrs = append(addrs, ms.Addr())
		defer ms.Close()
	}
	for _, ms := range mgrs {
		if err := ms.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	all := strings.Join(addrs, ",")
	ben, err := NewBenefactorServer("127.0.0.1:0", all, 0, 0,
		2*64*testChunk, testChunk, benefactor.NewMem(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer ben.Close()

	opts := fastOpts()
	opts.ProbeInterval = 15 * time.Millisecond
	opts.ProbeBens = 1
	st, err := OpenWith(all, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The client watches its own canaries: short SLO windows so the drill
	// fires within the test's patience rather than an operator's.
	st.Obs().StartMonitor(obs.MonitorConfig{
		SampleInterval: 10 * time.Millisecond,
		Rules: []obs.Rule{obs.SLO{
			Name:       "probe-slo-burn",
			Good:       "probe.ok",
			Bad:        "probe.err",
			Target:     0.999,
			FastWindow: 150 * time.Millisecond,
			SlowWindow: 600 * time.Millisecond,
			MinEvents:  4,
		}.Rule()},
	})
	defer st.Obs().StopMonitor()

	// Durable variables pinned to each shard: the probers' canaries are
	// transient, these give both shards chunks to hold under-replicated
	// state for after the benefactor dies.
	for shard, prefix := range []string{"alpha", "beta"} {
		name := nameOn(t, prefix, shard, 2)
		if err := putFile(st, name, pattern(byte(shard), testChunk+17)); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
	}

	// Phase 1 — steady state: probes succeed, no SLO burn, managers green.
	deadline := time.Now().Add(10 * time.Second)
	for {
		okCount := st.Obs().Reg.Snapshot().Counters["probe.ok"]
		green := okCount >= 20 && len(st.Obs().FiringAlerts()) == 0
		for _, ms := range mgrs {
			healthy, _, err := obs.FetchHealth(ms.DebugAddr())
			green = green && err == nil && healthy
		}
		if green {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached steady state: probe.ok=%d firing=%+v",
				okCount, st.Obs().FiringAlerts())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2 — incident: the only benefactor dies. Canary probes start
	// failing on every target.
	ben.Close()

	// (a) The probe SLO burn-rate rule fires on the client.
	for {
		firing := st.Obs().FiringAlerts()
		found := false
		for _, a := range firing {
			if a.Rule == "probe-slo-burn" {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			snap := st.Obs().Reg.Snapshot()
			t.Fatalf("probe-slo-burn never fired: ok=%d err=%d firing=%+v",
				snap.Counters["probe.ok"], snap.Counters["probe.err"], firing)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// (b) Every manager's /healthz degrades to 503 naming its shard.
	for i, ms := range mgrs {
		for {
			code, v := fetchHealthz(t, ms.DebugAddr())
			if code == http.StatusServiceUnavailable {
				if v.Status != "unhealthy" {
					t.Fatalf("shard %d healthz status %q", i, v.Status)
				}
				if want := fmt.Sprintf("%d/2", i); v.Shard != want {
					t.Fatalf("shard %d healthz shard %q, want %q", i, v.Shard, want)
				}
				if v.Epoch <= 0 {
					t.Fatalf("shard %d healthz epoch %d, want > 0", i, v.Epoch)
				}
				if len(v.Firing) == 0 || v.Firing[0].Rule != "under-replicated" {
					t.Fatalf("shard %d healthz firing %+v", i, v.Firing)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d /healthz never degraded", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// (c) Each manager wrote exactly one bundle (the firing edge triggered
	// the capture; the cooldown swallowed every later edge).
	required := []string{"goroutines.txt", "heap.pprof", "cpu.pprof", "spans.json", "series.json", "alerts.json", "metrics.json", "meta.json"}
	var bundleIDs []string
	for i, ms := range mgrs {
		ir := ms.Obs().Incidents()
		if ir == nil {
			t.Fatalf("shard %d has no incident recorder", i)
		}
		for {
			if len(ir.List()) >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never captured an incident bundle", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
		ir.Wait() // let the async capture finish writing
		list := ir.List()
		if len(list) != 1 {
			t.Fatalf("shard %d has %d bundles, want exactly 1: %+v", i, len(list), list)
		}
		m := list[0]
		if !strings.HasPrefix(m.Reason, "rule:") {
			t.Fatalf("shard %d bundle reason %q, want a rule-triggered capture", i, m.Reason)
		}
		if m.Identity.NShards != 2 || m.Identity.Shard != i {
			t.Fatalf("shard %d bundle identity %+v", i, m.Identity)
		}
		have := make(map[string]bool, len(m.Files))
		for _, f := range m.Files {
			have[f] = true
		}
		for _, f := range required {
			if !have[f] {
				t.Fatalf("shard %d bundle %s missing %s (files %v)", i, m.ID, f, m.Files)
			}
		}
		bundleIDs = append(bundleIDs, m.ID)

		// A follow-up capture request inside the cooldown must return the
		// existing bundle, not write a second one — over the same HTTP
		// endpoint nvmctl capture uses.
		meta, captured, err := obs.CaptureIncident(ms.DebugAddr(), "drill", false)
		if err != nil {
			t.Fatalf("shard %d capture: %v", i, err)
		}
		if captured || meta.ID != m.ID {
			t.Fatalf("shard %d cooldown leak: captured=%v id=%s (existing %s)", i, captured, meta.ID, m.ID)
		}
		if got := ir.List(); len(got) != 1 {
			t.Fatalf("shard %d grew to %d bundles after cooldown capture", i, len(got))
		}
	}

	// (d) The per-daemon bundles fetch over HTTP and merge into one
	// cluster archive with a <node>/ prefix per daemon.
	var parts []obs.BundlePart
	for i, ms := range mgrs {
		listed, err := obs.FetchIncidents(ms.DebugAddr())
		if err != nil {
			t.Fatalf("shard %d /incidents: %v", i, err)
		}
		if len(listed) != 1 || listed[0].ID != bundleIDs[i] {
			t.Fatalf("shard %d /incidents listed %+v, want [%s]", i, listed, bundleIDs[i])
		}
		var buf bytes.Buffer
		if err := obs.FetchIncidentBundle(ms.DebugAddr(), bundleIDs[i], &buf); err != nil {
			t.Fatalf("shard %d bundle fetch: %v", i, err)
		}
		parts = append(parts, obs.BundlePart{Node: fmt.Sprintf("manager-%d", i), R: &buf})
	}
	var merged bytes.Buffer
	if err := obs.MergeBundles(&merged, parts); err != nil {
		t.Fatalf("merge: %v", err)
	}
	gz, err := gzip.NewReader(&merged)
	if err != nil {
		t.Fatal(err)
	}
	entries := make(map[string]bool)
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("merged archive: %v", err)
		}
		entries[hdr.Name] = true
	}
	for i, id := range bundleIDs {
		want := fmt.Sprintf("manager-%d/%s/goroutines.txt", i, id)
		if !entries[want] {
			t.Fatalf("merged archive missing %s (have %v)", want, entries)
		}
	}
}
