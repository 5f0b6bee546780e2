package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"time"

	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/rpc"
)

// runWatch is the live cluster health view: every -interval it scrapes each
// daemon's /vitals endpoint (server-side windowed rates, percentiles, and
// alert state — one scrape per node, no client-side delta bookkeeping),
// merges the windowed histograms bucket-wise into cluster percentiles, and
// renders rates, cache-tier hit ratios, per-benefactor health, and the
// alerts currently pending or firing. -once prints a single frame and
// exits; the exit status is 0 even with alerts firing (watch observes, CI
// asserts on its output or on /healthz directly).
func runWatch(st *rpc.Store, args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	once := fs.Bool("once", false, "print one frame and exit")
	interval := fs.Duration("interval", 2*time.Second, "refresh cadence")
	window := fs.Duration("window", 30*time.Second, "rate/percentile lookback sent to /vitals")
	fs.Parse(args)

	for {
		frame := renderFrame(st, *window)
		if *once {
			fmt.Print(frame)
			return
		}
		// Clear and home between frames so the view updates in place.
		fmt.Print("\x1b[2J\x1b[H" + frame)
		time.Sleep(*interval)
	}
}

// nodeVitals pairs one scraped daemon with its vitals (or scrape error).
type nodeVitals struct {
	node
	v   obs.Vitals
	err error
}

// renderFrame discovers the live cluster and renders one dashboard frame.
func renderFrame(st *rpc.Store, window time.Duration) string {
	nodes, shards, bens, err := discover(st)
	if err != nil {
		return fmt.Sprintf("watch: discover: %v\n", err)
	}
	return renderFrameData(nodes, shards, bens, st.ShardEpochs(), window)
}

// renderFrameData renders a dashboard frame from an explicit cluster
// view — the seam the rendering unit test drives with fake /vitals
// servers, no live cluster required.
func renderFrameData(nodes []node, shards []shardInfo, bens []proto.BenefactorInfo, cachedEpochs []int64, window time.Duration) string {
	var b strings.Builder
	all := make([]nodeVitals, 0, len(nodes))
	healthy := true
	scraped := 0
	for _, n := range nodes {
		nv := nodeVitals{node: n}
		if n.addr == "" {
			nv.err = fmt.Errorf("%s", noDebug)
		} else {
			nv.v, nv.err = obs.FetchVitals(n.addr, window)
		}
		if nv.err == nil {
			scraped++
			if !nv.v.Healthy {
				healthy = false
			}
		}
		all = append(all, nv)
	}

	state := "HEALTHY"
	if !healthy {
		state = "UNHEALTHY"
	}
	fmt.Fprintf(&b, "nvmalloc cluster  %s  nodes %d/%d scraped  window %s  %s\n\n",
		state, scraped, len(nodes), window, time.Now().Format("15:04:05"))
	if scraped == 0 {
		b.WriteString("no node exposes a debug endpoint (-debug-addr)\n")
		return b.String()
	}

	// Cluster-merged view: counter rates sum, windowed histograms merge
	// bucket-wise so the percentiles are cluster-wide.
	rates := make(map[string]float64)
	hists := make(map[string]obs.HistogramSnapshot)
	var maxWin float64
	for _, nv := range all {
		if nv.err != nil {
			continue
		}
		mergeNode(rates, nv.v.Rates, hists, nv.v.Hists)
		if nv.v.WindowSeconds > maxWin {
			maxWin = nv.v.WindowSeconds
		}
	}

	fmt.Fprintf(&b, "%-40s %9s %10s %10s\n", "operation", "rate/s", "p50", "p99")
	names := sortedKeys(hists)
	sort.Slice(names, func(i, j int) bool {
		hi, hj := hists[names[i]], hists[names[j]]
		if hi.Count != hj.Count {
			return hi.Count > hj.Count
		}
		return names[i] < names[j]
	})
	shown := 0
	for _, name := range names {
		h := hists[name]
		if h.Count == 0 {
			continue
		}
		rate := float64(0)
		if maxWin > 0 {
			rate = float64(h.Count) / maxWin
		}
		fmt.Fprintf(&b, "%-40s %9.1f %10v %10v\n", name, rate,
			time.Duration(h.P50Nanos).Round(time.Microsecond),
			time.Duration(h.P99Nanos).Round(time.Microsecond))
		shown++
	}
	if shown == 0 {
		b.WriteString("(no operations in window)\n")
	}

	// Cache tiers, when any scraped registry carries them (client-embedded
	// daemons; plain manager/benefactor daemons have neither tier).
	tierLines := make([]string, 0, 2)
	for _, tier := range []struct{ label, prefix string }{
		{"memory tier (fusecache)", "fusecache"},
		{"file tier (filecache)", "filecache"},
	} {
		hits, misses := rates[tier.prefix+".hits"], rates[tier.prefix+".misses"]
		if hits+misses <= 0 {
			continue
		}
		tierLines = append(tierLines, fmt.Sprintf("  %-28s %5.1f%% hit  (%.1f hit/s, %.1f miss/s)",
			tier.label, 100*hits/(hits+misses), hits, misses))
	}
	if len(tierLines) > 0 {
		b.WriteString("\ncache tiers:\n")
		for _, l := range tierLines {
			b.WriteString(l + "\n")
		}
	}

	// Per-benefactor health: registration info (liveness, occupancy, beat
	// age) joined with each daemon's own vitals (device rates, alert state).
	b.WriteString("\nbenefactors:\n")
	fmt.Fprintf(&b, "  %-4s %-16s %6s %8s %10s %10s %10s %s\n",
		"id", "node", "state", "beat", "used%", "rd/s", "wr/s", "health")
	vitalsFor := func(name string) (obs.Vitals, error) {
		for _, nv := range all {
			if nv.name == name {
				return nv.v, nv.err
			}
		}
		return obs.Vitals{}, fmt.Errorf("not scraped")
	}
	sort.Slice(bens, func(i, j int) bool { return bens[i].ID < bens[j].ID })
	for _, ben := range bens {
		state := "alive"
		if !ben.Alive {
			state = "DEAD"
		}
		usedPct := float64(0)
		if ben.Capacity > 0 {
			usedPct = 100 * float64(ben.Used) / float64(ben.Capacity)
		}
		rd, wr, health := "-", "-", "-"
		if v, err := vitalsFor(fmt.Sprintf("benefactor-%d", ben.ID)); err == nil {
			rd = fmtBytesRate(v.Rates["benefactor.read_bytes"])
			wr = fmtBytesRate(v.Rates["benefactor.write_bytes"])
			health = "ok"
			if !v.Healthy {
				health = "ALERT"
			}
		} else if !ben.Alive {
			health = "unreachable"
		}
		fmt.Fprintf(&b, "  %-4d %-16d %6s %8s %9.1f%% %10s %10s %s\n",
			ben.ID, ben.Node, state,
			time.Duration(ben.BeatAgeNanos).Round(time.Millisecond),
			usedPct, rd, wr, health)
	}

	// Per-shard manager lines: occupancy and replication backlog from each
	// shard's own gauges (each shard accounts its slice of the capacity
	// split), plus the membership epoch. A shard whose epoch differs from
	// the client's cached map is flagged — the next routed op there will
	// pay one stale-map retry to resync.
	b.WriteString("\nmanagers:\n")
	for i, si := range shards {
		name := mgrName(i, len(shards))
		if si.err != nil {
			fmt.Fprintf(&b, "  %-12s @ %s UNREACHABLE (%v)\n", name, si.addr, si.err)
			continue
		}
		skew := ""
		if i < len(cachedEpochs) && si.epoch != cachedEpochs[i] {
			skew = fmt.Sprintf("  EPOCH SKEW (client map at %d)", cachedEpochs[i])
		}
		if v, err := vitalsFor(name); err == nil {
			fmt.Fprintf(&b, "  %-12s live=%d under_replicated=%d used=%s/%s epoch=%d%s\n",
				name,
				v.Gauges["manager.live_benefactors"],
				v.Gauges["manager.under_replicated"],
				fmtBytes(v.Gauges["manager.used_bytes"]),
				fmtBytes(v.Gauges["manager.capacity_bytes"]),
				si.epoch, skew)
		} else {
			fmt.Fprintf(&b, "  %-12s under_replicated=%d epoch=%d%s\n",
				name, si.under, si.epoch, skew)
		}
	}

	// Alerts across the whole cluster, firing first.
	var alerts []struct {
		node string
		a    obs.Alert
	}
	for _, nv := range all {
		if nv.err != nil {
			continue
		}
		for _, a := range nv.v.Alerts {
			alerts = append(alerts, struct {
				node string
				a    obs.Alert
			}{nv.name, a})
		}
	}
	sort.SliceStable(alerts, func(i, j int) bool {
		if alerts[i].a.State != alerts[j].a.State {
			return alerts[i].a.State == "firing"
		}
		if alerts[i].node != alerts[j].node {
			return alerts[i].node < alerts[j].node
		}
		return alerts[i].a.Rule < alerts[j].a.Rule
	})
	b.WriteString("\nalerts:\n")
	if len(alerts) == 0 {
		b.WriteString("  none\n")
	}
	for _, na := range alerts {
		a := na.a
		since := time.Duration(0)
		if a.SinceUnixNanos > 0 {
			since = time.Since(time.Unix(0, a.SinceUnixNanos)).Round(time.Second)
		}
		fmt.Fprintf(&b, "  %-7s %-16s %-28s %.3g %s %.3g  for %s\n",
			strings.ToUpper(a.State), na.node, a.Rule, a.Value, a.Op, a.Threshold, since)
	}

	// Scrape failures last, so a wedged daemon is visible rather than
	// silently absent from the merged view.
	for _, nv := range all {
		if nv.err != nil {
			fmt.Fprintf(&b, "\n%s: scrape failed: %v\n", nv.name, nv.err)
		}
	}
	return b.String()
}

// fmtBytesRate renders a bytes-per-second rate with a binary unit.
func fmtBytesRate(v float64) string {
	if v <= 0 {
		return "0"
	}
	return fmtBytes(int64(v)) + "/s"
}

// fmtBytes renders a byte count with a binary unit, one decimal.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
