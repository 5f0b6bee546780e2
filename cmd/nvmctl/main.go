// nvmctl is the command-line client for a TCP aggregate NVM store.
//
// On a sharded metadata plane -manager takes every shard's address,
// comma-separated (or any one of them — the rest is discovered from the
// piggybacked shard map). status/repair/kill and the observability
// commands aggregate across all shards; put/get/stat/rm/link route by the
// consistent-hash shard map.
//
// Usage:
//
//	nvmctl -manager host:7070 status
//	nvmctl -manager host:7070 put   <name> <local-file>
//	nvmctl -manager host:7070 get   <name> <local-file>
//	nvmctl -manager host:7070 stat  <name>
//	nvmctl -manager host:7070 rm    <name>
//	nvmctl -manager host:7070 link  <dst> <part> [part...]
//	nvmctl -manager host:7070 repair
//	nvmctl -manager host:7070 kill  <benefactor-id>
//	nvmctl -manager host:7070 ckpt-demo   full malloc/checkpoint/COW/restore/free cycle
//
// Observability commands (daemons must run with -debug-addr):
//
//	nvmctl -manager host:7070 metrics [host:debugport]  scrape one node's /metrics
//	nvmctl -manager host:7070 top                       cluster-wide latency/rate summary
//	nvmctl -manager host:7070 top -by-var               time/bytes attributed per NVM variable
//	nvmctl -manager host:7070 trace [trace-id]          span waterfall + events across all nodes
//	nvmctl -manager host:7070 slow                      slow-op flight recorder, cluster-wide
//	nvmctl -manager host:7070 watch [-once] [-interval 2s] [-window 30s]
//	                                                    live health view: windowed rates,
//	                                                    cluster percentiles, alerts
//
// Incident commands (daemons must also run with -incident-dir):
//
//	nvmctl -manager host:7070 incidents                 list incident bundles cluster-wide
//	nvmctl -manager host:7070 capture [-reason why] [-force]
//	                                                    snapshot a bundle on every daemon now
//	nvmctl -manager host:7070 bundle <id> [-o out.tar.gz] [-tolerance 2m]
//	                                                    fetch every daemon's bundle from the
//	                                                    same incident window, merged into one
//	                                                    archive (<node>/... entries)
//
// put and get print a `trace <id>` line; feed the id to `nvmctl trace` to
// see the op's hierarchical waterfall (client -> cache -> wire -> manager/
// benefactor -> SSD) with the critical path marked.
//
// Data-path flags:
//
//	-pool N      connections per benefactor (default 4)
//	-cache BYTES client chunk cache, must be positive (default 64 MB)
//	-cache-dir D persistent file-backed second cache tier (warm restarts)
//	-stats       print data-path and cache counters after the command
//	-n N         events/spans per node for trace and slow (default 50)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"nvmalloc"
	"nvmalloc/internal/filecache"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/store"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvmctl:", err)
	os.Exit(1)
}

func main() {
	mgr := flag.String("manager", "localhost:7070", "manager address(es); on a sharded plane list every shard, comma-separated")
	pool := flag.Int("pool", rpc.DefaultPoolSize, "connections per benefactor")
	cacheBytes := flag.Int64("cache", 64<<20, "client chunk cache bytes")
	cacheDir := flag.String("cache-dir", "", "persistent file-backed cache tier directory (empty disables)")
	showStats := flag.Bool("stats", false, "print data-path counters after the command")
	traceN := flag.Int("n", 50, "events per node for the trace command")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: nvmctl [-manager addr] [-pool n] [-cache bytes] [-cache-dir dir] [-stats] status|put|get|stat|rm|link|repair|kill|ckpt-demo|metrics|top|trace|slow|watch|capture|incidents|bundle ...")
		os.Exit(2)
	}
	if *cacheBytes <= 0 {
		fatal(fmt.Errorf("-cache %d: the client chunk cache is the data path; give it a positive size", *cacheBytes))
	}
	st, err := rpc.OpenWith(*mgr, rpc.Options{PoolSize: *pool})
	if err != nil {
		fatal(err)
	}

	// The data commands run behind the client chunk cache, so a partial
	// overwrite ships only dirty pages (paper Table VII).
	c, err := nvmalloc.ConnectStore(st, nvmalloc.ConnectConfig{CacheBytes: *cacheBytes, CacheDir: *cacheDir})
	if err != nil {
		st.Close()
		fatal(err)
	}
	// Client.Close flushes, commits the file tier (-cache-dir), and closes
	// st.
	defer c.Close()

	// Data commands run under one command-rooted span covering the whole
	// path — for put that is Malloc + WriteAt + Sync, so the payload's
	// actual trip to the benefactors lands in the same trace. The trace ID
	// is printed so the waterfall is one `nvmctl trace <id>` away.
	traced := func(name, op string, fn func(ctx store.Ctx, sp *obs.ActiveSpan) error) error {
		sp := st.Obs().StartSpan("", "", op)
		sp.SetVar(name)
		ctx := store.WithSpan(nil, store.SpanInfo{Trace: sp.Trace(), Parent: sp.ID(), Var: name})
		err := fn(ctx, sp)
		sp.SetErr(err)
		sp.End()
		if err == nil && sp.Trace() != "" {
			fmt.Printf("trace %s\n", sp.Trace())
		}
		return err
	}
	// An empty payload is a metadata create alone: Malloc rejects size 0,
	// and `link` needs an empty destination to exist.
	put := func(name string, data []byte) error {
		return traced(name, "client.put", func(ctx store.Ctx, sp *obs.ActiveSpan) error {
			sp.AddBytes(int64(len(data)))
			if len(data) == 0 {
				_, err := c.ChunkCache().Store().Create(ctx, name, 0)
				return err
			}
			r, err := c.Malloc(ctx, int64(len(data)), nvmalloc.WithName(name))
			if err != nil {
				return err
			}
			if err := r.WriteAt(ctx, 0, data); err != nil {
				return err
			}
			return r.Sync(ctx)
		})
	}
	get := func(name string) ([]byte, error) {
		var data []byte
		err := traced(name, "client.get", func(ctx store.Ctx, sp *obs.ActiveSpan) error {
			r, err := c.Attach(ctx, name)
			if err != nil {
				return err
			}
			data = make([]byte, r.Size())
			sp.AddBytes(r.Size())
			return r.ReadAt(ctx, 0, data)
		})
		return data, err
	}

	switch args[0] {
	case "status":
		runStatus(st)
	case "put":
		if len(args) != 3 {
			fatal(fmt.Errorf("put <name> <local-file>"))
		}
		data, err := os.ReadFile(args[2])
		if err != nil {
			fatal(err)
		}
		if err := put(args[1], data); err != nil {
			fatal(err)
		}
		fmt.Printf("stored %q (%d bytes)\n", args[1], len(data))
	case "get":
		if len(args) != 3 {
			fatal(fmt.Errorf("get <name> <local-file>"))
		}
		data, err := get(args[1])
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(args[2], data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("fetched %q (%d bytes)\n", args[1], len(data))
	case "stat":
		if len(args) != 2 {
			fatal(fmt.Errorf("stat <name>"))
		}
		fi, err := st.Stat(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d bytes, %d chunks\n", fi.Name, fi.Size, len(fi.Chunks))
		for i, ref := range fi.Chunks {
			fmt.Printf("  chunk %d -> %v", i, ref)
			if i < len(fi.Replicas) && len(fi.Replicas[i]) > 1 {
				fmt.Printf(" replicas=%v", fi.Replicas[i][1:])
			}
			fmt.Println()
		}
	case "rm":
		if len(args) != 2 {
			fatal(fmt.Errorf("rm <name>"))
		}
		if err := st.Delete(args[1]); err != nil {
			fatal(err)
		}
	case "link":
		if len(args) < 3 {
			fatal(fmt.Errorf("link <dst> <part> [part...]"))
		}
		// The Store's own link routes by the shard map and orchestrates the
		// cross-shard retain/link protocol when parts live on other shards.
		fi, err := st.Link(args[1], args[2:])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s now spans %d chunks (%d bytes)\n", fi.Name, len(fi.Chunks), fi.Size)
	case "repair":
		// Every shard repairs its own chunk table; results aggregate.
		var res rpc.RepairResult
		for i := range st.ShardAddrs() {
			mc, err := st.ShardManager(i)
			if err != nil {
				fatal(fmt.Errorf("shard %d: %w", i, err))
			}
			r, err := mc.Repair()
			if err != nil {
				fatal(fmt.Errorf("shard %d: %w", i, err))
			}
			res.Repaired += r.Repaired
			res.Failed += r.Failed
			res.UnderReplicated += r.UnderReplicated
			res.Lost = append(res.Lost, r.Lost...)
		}
		fmt.Printf("repaired %d replica copies, %d failed, backlog %d\n", res.Repaired, res.Failed, res.UnderReplicated)
		for _, id := range res.Lost {
			fmt.Printf("LOST: chunk %d has no surviving copy\n", id)
		}
		if len(res.Lost) > 0 || res.Failed > 0 {
			os.Exit(1)
		}
	case "kill":
		if len(args) != 2 {
			fatal(fmt.Errorf("kill <benefactor-id>"))
		}
		id, err := strconv.Atoi(args[1])
		if err != nil {
			fatal(fmt.Errorf("kill: bad benefactor id %q", args[1]))
		}
		// A benefactor is registered with every shard; fence it everywhere.
		for i := range st.ShardAddrs() {
			mc, err := st.ShardManager(i)
			if err != nil {
				fatal(fmt.Errorf("shard %d: %w", i, err))
			}
			if err := mc.MarkDead(id); err != nil {
				fatal(fmt.Errorf("shard %d: %w", i, err))
			}
		}
		fmt.Printf("benefactor %d marked dead; reads fail over, writes degrade until repair\n", id)
	case "ckpt-demo":
		runCkptDemo(*mgr)
	case "metrics":
		addr := ""
		if len(args) == 2 {
			addr = args[1]
		}
		runMetrics(st, addr)
	case "top":
		if len(args) >= 2 && (args[1] == "-by-var" || args[1] == "--by-var") {
			runTopByVar(st)
		} else {
			runTop(st)
		}
	case "trace":
		id := ""
		if len(args) == 2 {
			id = args[1]
		}
		runTrace(st, id, *traceN)
	case "slow":
		runSlow(st, *traceN)
	case "watch":
		runWatch(st, args[1:])
	case "capture":
		runCapture(st, args[1:])
	case "incidents":
		runIncidents(st)
	case "bundle":
		runBundle(st, args[1:])
	default:
		fatal(fmt.Errorf("unknown command %q", args[0]))
	}

	if *showStats {
		s := st.Stats()
		fmt.Printf("data path: gets=%d puts=%d pagePuts=%d ssdRead=%dB ssdWrite=%dB inflightPeak=%d\n",
			s.ChunkGets, s.ChunkPuts, s.PagePuts, s.SSDReadBytes, s.SSDWriteBytes, s.InFlightPeak)
		fmt.Printf("fault path: retries=%d failovers=%d degradedWrites=%d\n",
			s.Retries, s.Failovers, s.DegradedWrites)
		cs := c.ChunkCache().Stats()
		fmt.Printf("cache: hits=%d misses=%d evictions=%d dirtyEvictions=%d flushes=%d readAhead=%dB metaRetries=%d\n",
			cs.Hits, cs.Misses, cs.Evictions, cs.DirtyEvictions, cs.Flushes, cs.PrefetchBytes, cs.MetaRetries)
		if tier, ok := c.ChunkCache().Store().(*filecache.Tier); ok {
			f := tier.Stats()
			fmt.Printf("file tier: hits=%d misses=%d spills=%d evictions=%d commits=%d rebuilds=%d corrupt=%d live=%dB/%d\n",
				f.Hits, f.Misses, f.Puts, f.Evictions, f.Commits, f.Rebuilds, f.CorruptPayloads, f.LiveBytes, f.LiveEntries)
		}
	}
}

// runCkptDemo exercises the full library API — ssdmalloc, ssdcheckpoint
// with chunk linking, copy-on-write mutation, restore, ssdfree — against
// the live store, through the same facade Connect an application uses.
func runCkptDemo(mgrAddr string) {
	c, err := nvmalloc.Connect(mgrAddr, nvmalloc.ConnectConfig{})
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	chunk := c.ChunkCache().Config().ChunkSize
	size := 4 * chunk
	r, err := c.Malloc(nil, size, nvmalloc.WithName("ckpt-demo.state"))
	if err != nil {
		fatal(err)
	}
	payload := bytes.Repeat([]byte("iteration-0!"), int(size)/12+1)[:size]
	if err := r.WriteAt(nil, 0, payload); err != nil {
		fatal(err)
	}
	if err := r.Sync(nil); err != nil {
		fatal(err)
	}
	fmt.Printf("ssdmalloc %q: %d bytes\n", r.Name(), r.Size())

	before := c.ChunkCache().Stats().SSDWriteBytes
	dram := []byte("rank 0 solver state")
	info, err := c.Checkpoint(nil, "ckpt-demo.ckpt", dram, r)
	if err != nil {
		fatal(err)
	}
	moved := c.ChunkCache().Stats().SSDWriteBytes - before
	fmt.Printf("ssdcheckpoint %q: %d linked chunks, %d B moved (DRAM dump only)\n",
		info.Name, info.LinkedChunks, moved)

	if err := r.WriteAt(nil, 0, []byte("iteration-1!")); err != nil {
		fatal(err)
	}
	if err := r.Sync(nil); err != nil {
		fatal(err)
	}
	restored, err := c.RestoreRegion(nil, info.Name, info.Regions[0], "ckpt-demo.restored")
	if err != nil {
		fatal(err)
	}
	head := make([]byte, 12)
	if err := restored.ReadAt(nil, 0, head); err != nil {
		fatal(err)
	}
	fmt.Printf("mutated live variable; restored snapshot still starts %q (COW)\n", head)
	if !bytes.Equal(head, payload[:12]) {
		fatal(fmt.Errorf("ckpt-demo: restored data diverged from snapshot"))
	}

	for _, rr := range []*nvmalloc.Region{r, restored} {
		if err := rr.Free(nil); err != nil {
			fatal(err)
		}
	}
	if err := c.DeleteCheckpoint(nil, info.Name); err != nil {
		fatal(err)
	}
	fmt.Println("ssdfree: demo state released")
}

// node is one scrapeable cluster member.
type node struct {
	name string
	addr string // debug endpoint host:port, "" when the daemon has none
}

// fixHost rebinds a debug address announced with an unspecified host
// (":7071", "[::]:7071", "0.0.0.0:7071") onto the host the daemon is
// actually reachable at (taken from its RPC address).
func fixHost(debugAddr, rpcAddr string) string {
	if debugAddr == "" {
		return ""
	}
	dh, dp, err := net.SplitHostPort(debugAddr)
	if err != nil {
		return debugAddr
	}
	if dh == "" || dh == "::" || dh == "0.0.0.0" {
		if rh, _, err := net.SplitHostPort(rpcAddr); err == nil && rh != "" {
			return net.JoinHostPort(rh, dp)
		}
	}
	return debugAddr
}

// shardInfo is one metadata shard's reachability and status snapshot.
type shardInfo struct {
	addr  string
	debug string // debug endpoint, "" when the daemon has none
	epoch int64  // membership epoch the shard reported (0 pre-shard)
	under int    // under-replicated backlog on this shard
	err   error  // non-nil when the shard could not be reached
}

// mgrName labels shard i's manager node ("manager" when unsharded).
func mgrName(i, n int) string {
	if n <= 1 {
		return "manager"
	}
	return fmt.Sprintf("manager-%d", i)
}

// discover lists the cluster's debug endpoints — every manager shard, then
// every registered benefactor (merged across shards) — plus each shard's
// status snapshot. It succeeds as long as at least one shard answers, so
// the observability commands keep working with a shard down.
func discover(st *rpc.Store) ([]node, []shardInfo, []proto.BenefactorInfo, error) {
	addrs := st.ShardAddrs()
	shards := make([]shardInfo, len(addrs))
	nodes := make([]node, 0, len(addrs))
	reachable := 0
	for i, addr := range addrs {
		si := shardInfo{addr: addr}
		mc, err := st.ShardManager(i)
		if err == nil {
			var resp proto.ManagerResp
			if resp, err = mc.StatusDetail(); err == nil {
				si.debug = fixHost(resp.DebugAddr, addr)
				si.epoch = resp.ShardEpoch
				si.under = resp.UnderReplicated
				reachable++
			}
		}
		si.err = err
		shards[i] = si
		nodes = append(nodes, node{name: mgrName(i, len(addrs)), addr: si.debug})
	}
	if reachable == 0 {
		return nil, shards, nil, fmt.Errorf("no manager shard reachable")
	}
	bens, err := st.Status()
	if err != nil {
		return nil, shards, nil, err
	}
	for _, b := range bens {
		nodes = append(nodes, node{
			name: fmt.Sprintf("benefactor-%d", b.ID),
			addr: fixHost(b.DebugAddr, b.Addr),
		})
	}
	return nodes, shards, bens, nil
}

const noDebug = "n/a (daemon has no -debug-addr)"

func runStatus(st *rpc.Store) {
	nodes, shards, bens, err := discover(st)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("chunk size: %d bytes, %d metadata shard(s)\n", st.ChunkSize(), len(shards))
	for i, si := range shards {
		if si.err != nil {
			fmt.Printf("%s @ %s: UNREACHABLE (%v)\n", mgrName(i, len(shards)), si.addr, si.err)
		} else if len(shards) > 1 {
			fmt.Printf("%s @ %s epoch=%d under_replicated=%d\n",
				mgrName(i, len(shards)), si.addr, si.epoch, si.under)
		}
	}
	for i, b := range bens {
		state := "alive"
		if !b.Alive {
			state = "DEAD"
		}
		// Used and Capacity are the device totals, summed back from each
		// shard's capacity split by the merged Status.
		fmt.Printf("benefactor %d @ %s node=%d used=%d/%d written=%d %s beat_age=%s\n",
			b.ID, b.Addr, b.Node, b.Used, b.Capacity, b.WriteVolume, state,
			time.Duration(b.BeatAgeNanos).Round(time.Millisecond))
		// Server-side device traffic from the benefactor's own registry —
		// the authoritative view, unlike client-side counters.
		if addr := nodes[len(shards)+i].addr; addr != "" {
			if snap, err := obs.FetchMetrics(addr); err == nil {
				fmt.Printf("  ssd: read=%dB written=%dB (server-side)\n",
					snap.Counters["ssd.read_bytes"], snap.Counters["ssd.write_bytes"])
			} else {
				fmt.Printf("  ssd: scrape failed: %v\n", err)
			}
		} else {
			fmt.Printf("  ssd: %s\n", noDebug)
		}
	}
	under := 0
	for _, si := range shards {
		under += si.under
	}
	if under > 0 {
		fmt.Printf("WARNING: %d under-replicated chunks (run `nvmctl repair`)\n", under)
	}
	for i, si := range shards {
		name := mgrName(i, len(shards))
		if si.debug != "" {
			if snap, err := obs.FetchMetrics(si.debug); err == nil {
				fmt.Printf("%s: repaired=%d repair_failures=%d benefactor_deaths=%d\n",
					name,
					snap.Counters["manager.chunks_repaired"],
					snap.Counters["manager.repair_failures"],
					snap.Counters["manager.benefactor_deaths"])
			}
		} else if si.err == nil {
			fmt.Printf("%s: repair counters %s\n", name, noDebug)
		}
	}
}

func runMetrics(st *rpc.Store, addr string) {
	if addr == "" {
		_, shards, _, err := discover(st)
		if err != nil {
			fatal(err)
		}
		for _, si := range shards {
			if si.debug != "" {
				addr = si.debug
				break
			}
		}
		if addr == "" {
			fatal(fmt.Errorf("metrics: manager %s", noDebug))
		}
	}
	snap, err := obs.FetchMetrics(addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("node %s up %.1fs\n", snap.Node, snap.UptimeSeconds)
	printSnapshot(snap)
}

func printSnapshot(snap obs.Snapshot) {
	for _, name := range snap.MetricNames() {
		if v, ok := snap.Counters[name]; ok {
			fmt.Printf("  %-40s %d\n", name, v)
		}
		if v, ok := snap.Gauges[name]; ok {
			fmt.Printf("  %-40s %d (gauge)\n", name, v)
		}
		if h, ok := snap.Histograms[name]; ok && h.Count > 0 {
			fmt.Printf("  %-40s n=%d mean=%v p50=%v p95=%v p99=%v\n",
				name, h.Count, h.Mean().Round(time.Microsecond),
				time.Duration(h.P50Nanos).Round(time.Microsecond),
				time.Duration(h.P95Nanos).Round(time.Microsecond),
				time.Duration(h.P99Nanos).Round(time.Microsecond))
		}
	}
}

// runTop aggregates every node's registry into one cluster view: counters
// sum, histograms merge bucket-wise (so the percentiles are cluster-wide,
// not an average of per-node percentiles).
func runTop(st *rpc.Store) {
	nodes, _, _, err := discover(st)
	if err != nil {
		fatal(err)
	}
	counters := make(map[string]int64)
	hists := make(map[string]obs.HistogramSnapshot)
	var maxUptime float64
	scraped := 0
	for _, n := range nodes {
		if n.addr == "" {
			fmt.Printf("%-16s %s\n", n.name, noDebug)
			continue
		}
		snap, err := obs.FetchMetrics(n.addr)
		if err != nil {
			fmt.Printf("%-16s scrape failed: %v\n", n.name, err)
			continue
		}
		scraped++
		fmt.Printf("%-16s up %.1fs @ %s\n", n.name, snap.UptimeSeconds, n.addr)
		if snap.UptimeSeconds > maxUptime {
			maxUptime = snap.UptimeSeconds
		}
		for name, v := range snap.Counters {
			counters[name] += v
		}
		for name, h := range snap.Histograms {
			if cur, ok := hists[name]; ok {
				hists[name] = cur.Merge(h)
			} else {
				hists[name] = h
			}
		}
	}
	if scraped == 0 {
		fatal(fmt.Errorf("top: no node exposes a debug endpoint"))
	}

	fmt.Printf("\n%-40s %10s %10s %10s %10s %10s\n", "operation", "count", "p50", "p95", "p99", "rate/s")
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := hists[name]
		if h.Count == 0 {
			continue
		}
		rate := float64(0)
		if maxUptime > 0 {
			rate = float64(h.Count) / maxUptime
		}
		fmt.Printf("%-40s %10d %10v %10v %10v %10.1f\n",
			name, h.Count,
			time.Duration(h.P50Nanos).Round(time.Microsecond),
			time.Duration(h.P95Nanos).Round(time.Microsecond),
			time.Duration(h.P99Nanos).Round(time.Microsecond),
			rate)
	}

	fmt.Println()
	cnames := make([]string, 0, len(counters))
	for name := range counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	for _, name := range cnames {
		fmt.Printf("%-40s %10d\n", name, counters[name])
	}
}

// runTrace scrapes every node's span ring once. With an id it renders that
// trace's span tree as a waterfall with the critical path marked, followed
// by the trace's events; without one it lists the newest n events of every
// node (spans of many unrelated traces do not merge into a meaningful
// waterfall).
func runTrace(st *rpc.Store, id string, n int) {
	nodes, _, _, err := discover(st)
	if err != nil {
		fatal(err)
	}
	spans, events := collectSpans(nodes, id, false, 0, n)
	if len(spans) > 0 && id != "" {
		renderWaterfall(spans)
		fmt.Println()
	}
	// Stable sort with a full tie-break: events from different nodes often
	// share a timestamp at coarse clock resolution, and re-running the
	// command must not shuffle them.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].StartNanos != events[j].StartNanos {
			return events[i].StartNanos < events[j].StartNanos
		}
		if events[i].Node != events[j].Node {
			return events[i].Node < events[j].Node
		}
		return events[i].Detail < events[j].Detail
	})
	for _, ev := range events {
		comp, kind, _ := strings.Cut(ev.Name, ".")
		trace := ev.Trace
		if trace == "" {
			trace = "-"
		}
		fmt.Printf("%s %-16s %-12s %-14s %s %s\n",
			time.Unix(0, ev.StartNanos).Format("15:04:05.000000"), ev.Node, comp, kind, trace, ev.Detail)
	}
	if len(events) == 0 && (id == "" || len(spans) == 0) {
		fmt.Println("no events (daemons running without -debug-addr, or ring empty)")
	}
}

// collectSpans scrapes every node's span ring (or its slow-op flight
// recorder; n > 0 keeps each node's newest n entries) and splits it into
// timed spans, deduplicated by span ID — a span can surface on two nodes
// when a client exported it to the manager — and events, which never leave
// the node they happened on: each is labelled with that node's cluster name
// and, for nEvents > 0, only each node's newest nEvents are kept.
func collectSpans(nodes []node, trace string, slow bool, n, nEvents int) (spans, events []obs.Span) {
	seen := make(map[string]bool)
	for _, nd := range nodes {
		if nd.addr == "" {
			continue
		}
		got, err := obs.FetchSpans(nd.addr, trace, slow, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmctl: %s: %v\n", nd.name, err)
			continue
		}
		var evs []obs.Span
		for _, sp := range got {
			switch {
			case sp.IsEvent():
				sp.Node = nd.name
				evs = append(evs, sp)
			case !seen[sp.ID]:
				seen[sp.ID] = true
				spans = append(spans, sp)
			}
		}
		if nEvents > 0 && len(evs) > nEvents {
			evs = evs[len(evs)-nEvents:]
		}
		events = append(events, evs...)
	}
	return spans, events
}

// layerOf maps a span's "layer.op" name to the waterfall's breakdown rows.
func layerOf(name string) string {
	switch prefix, _, _ := strings.Cut(name, "."); prefix {
	case "client":
		return "client"
	case "cache":
		return "client cache"
	case "filecache":
		return "file cache"
	case "pool":
		return "pool wait"
	case "rpc":
		return "wire"
	case "manager":
		return "manager"
	case "benefactor":
		return "benefactor"
	case "ssd":
		return "ssd backend"
	default:
		return prefix
	}
}

// renderWaterfall prints one trace's span tree: an ASCII waterfall per root
// (bars positioned on the root's timeline, `*` marking the critical path)
// and a per-layer breakdown of exclusive time — each layer's self time with
// its children's time subtracted, so the layers sum to where the trace
// actually went.
func renderWaterfall(spans []obs.Span) {
	byID := make(map[string]obs.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	kids := make(map[string][]obs.Span)
	var roots []obs.Span
	for _, sp := range spans {
		if sp.Parent != "" {
			if _, ok := byID[sp.Parent]; ok {
				kids[sp.Parent] = append(kids[sp.Parent], sp)
				continue
			}
			// Orphan: its parent fell out of a ring. Promote to root so the
			// data still shows.
		}
		roots = append(roots, sp)
	}
	for id := range kids {
		ks := kids[id]
		sort.SliceStable(ks, func(i, j int) bool {
			if ks[i].StartNanos != ks[j].StartNanos {
				return ks[i].StartNanos < ks[j].StartNanos
			}
			return ks[i].ID < ks[j].ID
		})
	}
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].StartNanos < roots[j].StartNanos })

	for _, root := range roots {
		crit := make(map[string]bool)
		markCritical(root, kids, crit)

		// The render window spans the whole tree: child clocks on other
		// nodes may run ahead of the root's (skew), and bars must not
		// escape the frame.
		lo, hi := root.StartNanos, root.End()
		var walk func(obs.Span)
		walk = func(sp obs.Span) {
			if sp.StartNanos < lo {
				lo = sp.StartNanos
			}
			if sp.End() > hi {
				hi = sp.End()
			}
			for _, k := range kids[sp.ID] {
				walk(k)
			}
		}
		walk(root)

		fmt.Printf("trace %s  root %s  %s  %s\n",
			root.Trace, root.Name, fmtVar(root.Var), fmtDur(root.DurNanos))
		printSpan(root, kids, crit, lo, hi, 0)

		excl := make(map[string]int64)
		var total int64
		var sum func(obs.Span)
		sum = func(sp obs.Span) {
			self := sp.DurNanos
			for _, k := range kids[sp.ID] {
				self -= k.DurNanos
				sum(k)
			}
			if self < 0 {
				self = 0 // parallel children overlap; no negative self time
			}
			excl[layerOf(sp.Name)] += self
			total += self
		}
		sum(root)
		fmt.Println("  layer breakdown (exclusive time):")
		order := []string{"client", "client cache", "file cache", "pool wait", "wire", "manager", "benefactor", "ssd backend"}
		printed := make(map[string]bool)
		printLayer := func(l string) {
			ns, ok := excl[l]
			if !ok || printed[l] {
				return
			}
			printed[l] = true
			pct := float64(0)
			if total > 0 {
				pct = 100 * float64(ns) / float64(total)
			}
			fmt.Printf("    %-14s %10s  %5.1f%%\n", l, fmtDur(ns), pct)
		}
		for _, l := range order {
			printLayer(l)
		}
		lnames := make([]string, 0, len(excl))
		for l := range excl {
			lnames = append(lnames, l)
		}
		sort.Strings(lnames)
		for _, l := range lnames {
			printLayer(l)
		}
		fmt.Println()
	}
	fmt.Println("  (* = critical path)")
}

// markCritical walks the span tree marking the critical path: the chain of
// children that ends last dominates its parent's duration; earlier children
// join the path only when they end before the later critical child begins
// (they were the bottleneck until then).
func markCritical(sp obs.Span, kids map[string][]obs.Span, crit map[string]bool) {
	crit[sp.ID] = true
	ks := append([]obs.Span(nil), kids[sp.ID]...)
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].End() > ks[j].End() })
	first := true
	var frontier int64
	for _, k := range ks {
		if !first && k.End() > frontier {
			continue // overlapped by a later critical child: off the path
		}
		first = false
		markCritical(k, kids, crit)
		frontier = k.StartNanos
	}
}

const barWidth = 40

// printSpan renders one span row and recurses into its children.
func printSpan(sp obs.Span, kids map[string][]obs.Span, crit map[string]bool, lo, hi int64, depth int) {
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	from := int(int64(barWidth) * (sp.StartNanos - lo) / span)
	to := int(int64(barWidth) * (sp.End() - lo) / span)
	if to <= from {
		to = from + 1
	}
	if to > barWidth {
		to = barWidth
	}
	bar := strings.Repeat(" ", from) + strings.Repeat("=", to-from) + strings.Repeat(" ", barWidth-to)
	mark := " "
	if crit[sp.ID] {
		mark = "*"
	}
	detail := ""
	if sp.Bytes > 0 {
		detail = fmt.Sprintf(" %dB", sp.Bytes)
	}
	if sp.Err != "" {
		detail += " ERR=" + sp.Err
	}
	fmt.Printf("  %s%-*s %-14s %9s [%s]%s\n",
		mark, 28, strings.Repeat("  ", depth)+sp.Name, sp.Node, fmtDur(sp.DurNanos), bar, detail)
	for _, k := range kids[sp.ID] {
		printSpan(k, kids, crit, lo, hi, depth+1)
	}
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func fmtVar(v string) string {
	if v == "" {
		return "var=-"
	}
	return fmt.Sprintf("var=%q", v)
}

// runSlow lists the cluster's slow-op flight recorders: root spans that
// exceeded the daemons' -slow threshold, retained even after the main span
// ring wrapped. Slowest first.
func runSlow(st *rpc.Store, n int) {
	nodes, _, _, err := discover(st)
	if err != nil {
		fatal(err)
	}
	spans, _ := collectSpans(nodes, "", true, n, 0)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].DurNanos != spans[j].DurNanos {
			return spans[i].DurNanos > spans[j].DurNanos
		}
		return spans[i].ID < spans[j].ID
	})
	if len(spans) == 0 {
		fmt.Println("no slow ops recorded (below threshold, or daemons running without -debug-addr)")
		return
	}
	fmt.Printf("%-10s %-18s %-16s %-24s %-10s %s\n", "dur", "op", "node", "var", "bytes", "trace")
	for _, sp := range spans {
		errNote := ""
		if sp.Err != "" {
			errNote = "  ERR=" + sp.Err
		}
		fmt.Printf("%-10s %-18s %-16s %-24s %-10d %s%s\n",
			fmtDur(sp.DurNanos), sp.Name, sp.Node, sp.Var, sp.Bytes, sp.Trace, errNote)
	}
}

// runTopByVar attributes trace time to NVM variables: every root span
// retained in the cluster's rings, aggregated by the variable it worked on.
func runTopByVar(st *rpc.Store) {
	nodes, _, _, err := discover(st)
	if err != nil {
		fatal(err)
	}
	spans, _ := collectSpans(nodes, "", false, 0, 0)
	type agg struct {
		ops   int64
		nanos int64
		bytes int64
		errs  int64
	}
	byVar := make(map[string]*agg)
	for _, sp := range spans {
		if !sp.Root() {
			continue // child spans double-count their root's time
		}
		v := sp.Var
		if v == "" {
			v = "(unattributed)"
		}
		a := byVar[v]
		if a == nil {
			a = &agg{}
			byVar[v] = a
		}
		a.ops++
		a.nanos += sp.DurNanos
		a.bytes += sp.Bytes
		if sp.Err != "" {
			a.errs++
		}
	}
	if len(byVar) == 0 {
		fmt.Println("no root spans recorded (run some traffic first, or daemons lack -debug-addr)")
		return
	}
	vars := make([]string, 0, len(byVar))
	for v := range byVar {
		vars = append(vars, v)
	}
	sort.SliceStable(vars, func(i, j int) bool {
		if byVar[vars[i]].nanos != byVar[vars[j]].nanos {
			return byVar[vars[i]].nanos > byVar[vars[j]].nanos
		}
		return vars[i] < vars[j]
	})
	fmt.Printf("%-28s %8s %12s %14s %6s\n", "variable", "ops", "time", "bytes", "errs")
	for _, v := range vars {
		a := byVar[v]
		fmt.Printf("%-28s %8d %12s %14d %6d\n", v, a.ops, fmtDur(a.nanos), a.bytes, a.errs)
	}
}
