// nvmstore runs the aggregate NVM store's daemons over TCP.
//
// Usage:
//
//	nvmstore manager  -listen :7070 [-chunk 262144] [-policy rr|least|wear]
//	          [-replication 1] [-hbtimeout 5s] [-sweep 0]
//	          [-shard 0/2 -peers host:7070,host:7072]
//	          [-debug-addr :7071] [-log info]
//	          [-sample 1s] [-history 300] [-alert-for 30s] [-p99-budget 250ms] [-no-rules]
//	          [-incident-dir /var/lib/nvm/incidents] [-incident-max 8] [-incident-cpu 5s]
//	nvmstore benefactor -manager host:7070[,host:7072] -id 0 [-listen :0] [-dir /ssd/nvm]
//	          [-capacity 1073741824] [-chunk 262144] [-node 0] [-beat 2s]
//	          [-debug-addr :0] [-log info]
//	          [-sample 1s] [-history 300] [-alert-for 30s] [-p99-budget 250ms] [-no-rules]
//	          [-incident-dir /var/lib/nvm/incidents] [-incident-max 8] [-incident-cpu 5s]
//
// A benefactor contributes -capacity bytes of the file system at -dir
// (mount the node-local SSD there) to the store managed by -manager.
//
// A sharded metadata plane runs one manager per shard: start shard i of n
// with -shard i/n and -peers listing every shard's client-facing address in
// shard order (-peers[i] must be this manager). Benefactors then register
// with every shard (-manager takes the same comma-separated list) and
// clients connect with the list — or any one address; the rest is
// discovered from the piggybacked shard map.
//
// With -debug-addr either daemon serves its observability state over HTTP:
// /metrics (JSON metrics snapshot), /metrics.prom (Prometheus text
// exposition), /healthz (503 while an alert rule fires), /vitals (windowed
// rates/percentiles + alert state), /spans (hierarchical spans and events,
// ?trace=ID filters, ?slow=1 reads the slow-op flight recorder), and
// /debug/pprof. nvmctl's metrics/top/trace/slow/watch commands scrape these
// endpoints; -slow tunes which root spans the flight recorder retains.
//
// Both daemons self-monitor: every -sample interval the metrics registry is
// snapshotted into a bounded in-process time series (-history samples) and
// the default alert rules are evaluated against it (-alert-for sustain,
// -p99-budget latency budget; -no-rules disables evaluation, -sample 0
// disables the monitor entirely).
//
// With -incident-dir, any alert rule's pending→firing edge snapshots an
// incident bundle into that directory (goroutine dump, heap + CPU profiles,
// span ring with its events, slow-op flight recorder, recent time-series
// samples, firing rules, shard identity), keeping at most -incident-max
// bundles. nvmctl's capture/incidents/bundle commands drive the same
// recorder over HTTP.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nvmalloc/internal/manager"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/shardmap"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "manager":
		runManager(os.Args[2:])
	case "benefactor":
		runBenefactor(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nvmstore manager|benefactor [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvmstore:", err)
	os.Exit(1)
}

// waitForInterrupt blocks until Ctrl-C or SIGTERM (what kill, timeout and
// service managers send), so either runs the daemon's shutdown path.
func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

// parseShard resolves the -shard i/n and -peers flags into the manager's
// shard identity. Empty -shard is the unsharded deployment.
func parseShard(shard, peers string) (idx, cnt int, peerList []string, err error) {
	if shard == "" {
		if peers != "" {
			return 0, 0, nil, fmt.Errorf("-peers requires -shard i/n")
		}
		return 0, 0, nil, nil
	}
	if _, err := fmt.Sscanf(shard, "%d/%d", &idx, &cnt); err != nil {
		return 0, 0, nil, fmt.Errorf("-shard %q: want i/n (e.g. 0/2)", shard)
	}
	if cnt < 1 || idx < 0 || idx >= cnt {
		return 0, 0, nil, fmt.Errorf("-shard %q: index out of range", shard)
	}
	peerList = shardmap.SplitAddrs(peers)
	if cnt > 1 && len(peerList) != cnt {
		return 0, 0, nil, fmt.Errorf("-peers lists %d addresses for %d shards", len(peerList), cnt)
	}
	return idx, cnt, peerList, nil
}

// monitorFlags registers the self-monitoring flags shared by both daemons
// and returns a closure resolving them into a MonitorConfig once parsed.
func monitorFlags(fs *flag.FlagSet) func(d obs.RuleDefaults) obs.MonitorConfig {
	sample := fs.Duration("sample", time.Second, "self-monitoring sample interval (0 disables the time series and alert rules)")
	history := fs.Int("history", obs.DefaultSeriesSamples, "time-series samples retained")
	alertFor := fs.Duration("alert-for", 30*time.Second, "how long an alert condition must hold before it fires")
	p99Budget := fs.Duration("p99-budget", 250*time.Millisecond, "op-latency p99 above this fires the latency alert")
	noRules := fs.Bool("no-rules", false, "sample the time series but evaluate no alert rules")
	return func(d obs.RuleDefaults) obs.MonitorConfig {
		cfg := obs.MonitorConfig{SampleInterval: *sample, History: *history}
		if !*noRules {
			d.Sustain = *alertFor
			d.P99Budget = *p99Budget
			cfg.Rules = obs.DefaultRules(d)
		}
		return cfg
	}
}

// incidentFlags registers the incident-recorder flags shared by both
// daemons and returns a closure resolving them into an IncidentConfig
// once parsed (zero config when -incident-dir is unset).
func incidentFlags(fs *flag.FlagSet) func() obs.IncidentConfig {
	dir := fs.String("incident-dir", "", "write alert-triggered incident bundles into this directory (empty disables)")
	maxB := fs.Int("incident-max", 0, "incident bundles retained on disk before the oldest is pruned (0 = 8)")
	cpu := fs.Duration("incident-cpu", 0, "CPU-profile duration inside each bundle (0 = 5s, negative skips)")
	return func() obs.IncidentConfig {
		return obs.IncidentConfig{Dir: *dir, MaxBundles: *maxB, CPUProfile: *cpu}
	}
}

// newObs builds a daemon's observability bundle: metrics registry, span
// ring, and a log/slog text logger on stderr at the requested level.
func newObs(node, level string) *obs.Obs {
	lvl := obs.LevelOff
	if level != "" && !strings.EqualFold(level, "off") {
		if err := lvl.UnmarshalText([]byte(level)); err != nil {
			fatal(err)
		}
	}
	o := obs.New(node)
	o.Log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	return o
}

func runManager(args []string) {
	fs := flag.NewFlagSet("manager", flag.ExitOnError)
	listen := fs.String("listen", ":7070", "listen address")
	chunk := fs.Int64("chunk", 256<<10, "chunk size in bytes")
	policy := fs.String("policy", "rr", "placement policy: rr|least|wear")
	replication := fs.Int("replication", 1, "copies kept of each chunk (on distinct benefactors)")
	hbTimeout := fs.Duration("hbtimeout", 0, "heartbeat staleness before a benefactor is declared dead (0 = 5s default)")
	sweep := fs.Duration("sweep", 0, "death-sweep clock tick (0 = half of hbtimeout, negative disables)")
	shard := fs.String("shard", "", "shard position i/n on a sharded metadata plane (e.g. 0/2; empty = unsharded)")
	peers := fs.String("peers", "", "comma-separated manager addresses of every shard, in shard order (required with -shard)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz, /spans, /debug/pprof on this address (empty disables)")
	logLevel := fs.String("log", "info", "log level: debug|info|warn|error|off")
	slow := fs.Duration("slow", obs.DefaultSlowThreshold, "root spans at least this long are copied to the slow-op flight recorder (0 disables)")
	monitor := monitorFlags(fs)
	incidents := incidentFlags(fs)
	fs.Parse(args)

	shardIdx, shardCnt, peerList, err := parseShard(*shard, *peers)
	if err != nil {
		fatal(err)
	}
	pol := manager.RoundRobin
	switch *policy {
	case "rr":
	case "least":
		pol = manager.LeastLoaded
	case "wear":
		pol = manager.WearAware
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}
	o := newObs("manager", *logLevel)
	o.SetSlowThreshold(*slow)
	srv, err := rpc.NewManagerServerWith(*listen, *chunk, pol, rpc.ManagerConfig{
		Replication:      *replication,
		HeartbeatTimeout: *hbTimeout,
		SweepInterval:    *sweep,
		DebugAddr:        *debugAddr,
		Obs:              o,
		Monitor:          monitor(obs.RuleDefaults{HeartbeatTimeout: *hbTimeout}),
		ShardIndex:       shardIdx,
		ShardCount:       shardCnt,
		Peers:            peerList,
		Incidents:        incidents(),
	})
	if err != nil {
		fatal(err)
	}
	if shardCnt > 1 {
		fmt.Printf("nvmstore manager shard %d/%d listening on %s (chunk=%d, policy=%s, replication=%d)\n",
			shardIdx, shardCnt, srv.Addr(), *chunk, *policy, *replication)
	} else {
		fmt.Printf("nvmstore manager listening on %s (chunk=%d, policy=%s, replication=%d)\n",
			srv.Addr(), *chunk, *policy, *replication)
	}
	if srv.DebugAddr() != "" {
		fmt.Printf("nvmstore manager debug endpoint on %s\n", srv.DebugAddr())
	}
	o.Log.Info("manager started", "addr", srv.Addr(), "debug", srv.DebugAddr(),
		"chunk", *chunk, "policy", *policy, "replication", *replication,
		"shard", shardIdx, "shards", shardCnt)
	waitForInterrupt()
	o.Log.Info("manager shutting down")
	srv.Close()
}

func runBenefactor(args []string) {
	fs := flag.NewFlagSet("benefactor", flag.ExitOnError)
	listen := fs.String("listen", ":0", "listen address")
	mgr := fs.String("manager", "localhost:7070", "manager address(es); on a sharded plane list every shard, comma-separated")
	id := fs.Int("id", 0, "benefactor id (unique across the store)")
	node := fs.Int("node", 0, "hosting node id")
	dir := fs.String("dir", "./nvm-chunks", "chunk directory (node-local SSD mount)")
	capacity := fs.Int64("capacity", 1<<30, "contributed bytes")
	chunk := fs.Int64("chunk", 256<<10, "chunk size (must match the manager)")
	beat := fs.Duration("beat", 2*time.Second, "heartbeat interval")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz, /spans, /debug/pprof on this address (empty disables)")
	logLevel := fs.String("log", "info", "log level: debug|info|warn|error|off")
	slow := fs.Duration("slow", obs.DefaultSlowThreshold, "root spans at least this long are copied to the slow-op flight recorder (0 disables)")
	monitor := monitorFlags(fs)
	incidents := incidentFlags(fs)
	fs.Parse(args)

	backend, err := rpc.NewFileBackend(*dir)
	if err != nil {
		fatal(err)
	}
	o := newObs(fmt.Sprintf("benefactor-%d", *id), *logLevel)
	o.SetSlowThreshold(*slow)
	srv, err := rpc.NewBenefactorServerWith(*listen, *mgr, *id, *node, *capacity, *chunk, backend, *beat, rpc.BenefactorConfig{
		DebugAddr: *debugAddr,
		Obs:       o,
		Monitor:   monitor(obs.RuleDefaults{}),
		Incidents: incidents(),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("nvmstore benefactor %d serving %s on %s (capacity=%d)\n", *id, *dir, srv.Addr(), *capacity)
	if srv.DebugAddr() != "" {
		fmt.Printf("nvmstore benefactor %d debug endpoint on %s\n", *id, srv.DebugAddr())
	}
	o.Log.Info("benefactor started", "id", *id, "addr", srv.Addr(), "debug", srv.DebugAddr(),
		"dir", *dir, "capacity", *capacity)
	waitForInterrupt()
	o.Log.Info("benefactor shutting down", "id", *id)
	srv.Close()
}
