package rpc

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/router"
	"nvmalloc/internal/shardmap"
	"nvmalloc/internal/store"
)

// Options tunes the client data path.
type Options struct {
	// PoolSize is the number of connections kept per benefactor. One
	// connection serializes its calls, so this is the per-SSD pipelining depth.
	// 0 means DefaultPoolSize.
	PoolSize int
	// Deprecated: has no effect. The store moves single chunks; the chunk
	// cache over it bounds requests in flight (fusecache.DefaultFuseConcurrency).
	Parallelism int
	// CallTimeout bounds one chunk RPC round trip (socket deadline), so a
	// wedged benefactor costs a timeout instead of hanging the client.
	// 0 means DefaultCallTimeout; negative disables deadlines.
	CallTimeout time.Duration
	// DialTimeout bounds connection establishment to a benefactor.
	// 0 means DefaultDialTimeout.
	DialTimeout time.Duration
	// Retry governs transient-failure retries against one replica.
	Retry RetryPolicy
	// SuspectWindow is how long a benefactor that exhausted a retry budget
	// is deprioritized when ordering replica reads. 0 means
	// DefaultSuspectWindow; negative disables suspicion.
	SuspectWindow time.Duration
	// Dial overrides the benefactor transport dialer (fault injection in
	// tests). When nil, plain TCP with DialTimeout is used.
	Dial func(addr string) (net.Conn, error)
	// Obs receives the client's metrics (per-op latency histograms, pool
	// wait time, data-path counters), spans and fault events. Nil gets
	// a fresh private obs.New instance; obs.Disabled() turns every
	// recording call into a no-op (and zeroes Stats).
	Obs *obs.Obs
}

// Defaults for Options fields left zero.
const (
	DefaultPoolSize      = 4
	DefaultCallTimeout   = 10 * time.Second
	DefaultDialTimeout   = 5 * time.Second
	DefaultSuspectWindow = 2 * time.Second
)

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = DefaultPoolSize
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	if o.CallTimeout < 0 {
		o.CallTimeout = 0
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.SuspectWindow == 0 {
		o.SuspectWindow = DefaultSuspectWindow
	}
	if o.Obs == nil {
		o.Obs = obs.New("client")
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// Stats are a Store's cumulative data-path counters.
type Stats struct {
	ChunkGets     int64 // OpGetChunk calls issued
	ChunkPuts     int64 // OpPutChunk calls issued
	PagePuts      int64 // OpPutPages calls issued
	SSDReadBytes  int64 // chunk payload bytes fetched from benefactors
	SSDWriteBytes int64 // payload bytes shipped to benefactors
	// Deprecated: has no effect, always 0. A chunk cache counts its
	// stale-map retries (fusecache.Stats.MetaRetries).
	MetaRetries    int64
	MapRetries     int64 // ops retried after a stale shard map (epoch fence)
	InFlightPeak   int64 // max simultaneous chunk RPCs observed
	Retries        int64 // chunk RPC attempts beyond the first (transient failures)
	Failovers      int64 // chunk reads served by a non-primary replica
	DegradedWrites int64 // chunk writes that reached fewer than all replicas
}

// storeMetrics holds the client data path's registry handles, looked up
// once at Open so the hot path touches only atomics. Stats() is a
// compatibility shim over the same counters.
type storeMetrics struct {
	chunkGets, chunkPuts, pagePuts     *obs.Counter
	ssdReadBytes, ssdWriteBytes        *obs.Counter
	mapRetries                         *obs.Counter
	retries, failovers, degradedWrites *obs.Counter
	spanExportErrs                     *obs.Counter
	inFlight, inFlightPeak             *obs.Gauge
	getLat, putLat, pagePutLat         *obs.Histogram
	poolWait                           *obs.Histogram
}

func newStoreMetrics(o *obs.Obs) storeMetrics {
	r := o.Reg
	return storeMetrics{
		chunkGets:      r.Counter("rpc.chunk_gets"),
		chunkPuts:      r.Counter("rpc.chunk_puts"),
		pagePuts:       r.Counter("rpc.page_puts"),
		ssdReadBytes:   r.Counter("rpc.ssd_read_bytes"),
		ssdWriteBytes:  r.Counter("rpc.ssd_write_bytes"),
		mapRetries:     r.Counter("rpc.map_retries"),
		retries:        r.Counter("rpc.retries"),
		failovers:      r.Counter("rpc.failovers"),
		degradedWrites: r.Counter("rpc.degraded_writes"),
		spanExportErrs: r.Counter("rpc.span_export_errors"),
		inFlight:       r.Gauge("rpc.inflight"),
		inFlightPeak:   r.Gauge("rpc.inflight_peak"),
		getLat:         r.Histogram("rpc.get_chunk.latency"),
		putLat:         r.Histogram("rpc.put_chunk.latency"),
		pagePutLat:     r.Histogram("rpc.put_pages.latency"),
		poolWait:       r.Histogram("rpc.pool_wait.latency"),
	}
}

func (m *storeMetrics) enter() { m.inFlightPeak.Max(m.inFlight.Add(1)) }
func (m *storeMetrics) exit()  { m.inFlight.Add(-1) }

// opLatency returns the latency histogram for one chunk op (nil for ops
// the client data path never times).
func (m *storeMetrics) opLatency(op proto.Op) *obs.Histogram {
	switch op {
	case proto.OpGetChunk:
		return m.getLat
	case proto.OpPutChunk:
		return m.putLat
	case proto.OpPutPages:
		return m.pagePutLat
	}
	return nil
}

// Store is the client of the TCP aggregate store: it routes metadata RPCs
// to the owning manager shard and moves single chunks (get, put, put-pages)
// directly between the application and the benefactors, failing over
// across replicas. It has no file byte path of its own: the chunk cache
// (fusecache.ChunkCache over NewStoreClient, as nvmalloc.Connect builds
// it) splits file I/O into chunk requests and keeps several in flight.
//
// Chunk requests share a small connection pool per benefactor, so a
// striped file's bandwidth aggregates over its contributors (paper §III-D)
// instead of serializing on a single socket. All methods are safe for
// concurrent use.
type Store struct {
	// shards holds one metadata client per manager shard, indexed by shard
	// (file names route by shardmap.ShardFor over len(shards); chunk IDs by
	// their mint stride). Unsharded deployments have exactly one entry. The
	// roster is rebuilt in place when a piggybacked shard map reveals more
	// shards than the client was configured with; entries learned that way
	// dial lazily on first use. Guarded by mu.
	shards    []*shardState
	opts      Options
	mu        sync.Mutex
	chunkSize int64
	benAddrs  map[int]string
	// benAlive mirrors the manager's view of benefactor liveness (refreshed
	// by Refresh); writes skip manager-dead replicas instead of burning a
	// retry budget against them.
	benAlive map[int]bool
	// suspectUntil deprioritizes benefactors that just exhausted a retry
	// budget when ordering replica reads, so a dying node costs one timeout
	// burst, not one per chunk.
	suspectUntil map[int]time.Time
	pools        map[int]*pool[*chunkConn]
	// arena pools chunk payload buffers for the binary data path: response
	// payloads are leased from it by the wire layer and returned through
	// ReleaseChunk (by the chunk cache via store.BufferLender). Sized to
	// the store's chunk geometry at Open.
	arena *proto.Arena
	// meta is the metadata client over the shards: name routing and the
	// cross-shard link/derive protocol (internal/router).
	meta router.Router

	obs *obs.Obs
	m   storeMetrics

	// pending batches locally completed spans for export to the manager
	// (OpReportSpans), so traces rooted in this client survive the client
	// process's exit and remain scrapeable by nvmctl.
	pendingMu sync.Mutex
	pending   []proto.Span
	exports   sync.WaitGroup
}

// shardState is the client's cached view of one manager shard: its
// metadata connection (dialed lazily for shards learned from a piggybacked
// peer list) and the last membership epoch observed from it. Requests
// stamp the cached epoch; a fence (ErrStaleShardMap) or any stamped
// response refreshes it.
type shardState struct {
	addr  string
	mc    *ManagerClient
	epoch int64
}

// Open connects to the manager (or comma-separated manager shards) at addr
// with default Options.
func Open(addr string) (*Store, error) { return OpenWith(addr, Options{}) }

// OpenWith connects to the manager at addr — "host:port[,host:port...]",
// one address per shard, in shard order — and discovers the store's
// geometry and benefactors. Connecting to a subset of a sharded cluster
// works too: the first response piggybacks the full shard roster and the
// client dials the missing peers on demand.
func OpenWith(addr string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	addrs := shardmap.SplitAddrs(addr)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("nvm store: no manager address")
	}
	s := &Store{
		opts:         opts,
		benAddrs:     make(map[int]string),
		benAlive:     make(map[int]bool),
		suspectUntil: make(map[int]time.Time),
		pools:        make(map[int]*pool[*chunkConn]),
		obs:          opts.Obs,
		m:            newStoreMetrics(opts.Obs),
	}
	s.meta = router.New(shardConn{s})
	// Dial every listed shard, but tolerate unreachable ones as long as at
	// least one answers — the surviving shards' keyspaces must stay
	// reachable with a shard down. A nil client is redialed on demand.
	var firstErr error
	dialed := 0
	for i, a := range addrs {
		mc, err := DialManager(a, opts.CallTimeout)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("manager shard %d (%s): %w", i, a, err)
			}
			s.shards = append(s.shards, &shardState{addr: a})
			continue
		}
		dialed++
		s.shards = append(s.shards, &shardState{addr: a, mc: mc})
	}
	if dialed == 0 {
		s.closeShards()
		return nil, firstErr
	}
	if err := s.Refresh(); err != nil {
		s.closeShards()
		return nil, err
	}
	s.arena = proto.NewArena(s.chunkSize)
	s.obs.SetSpanSink(s.exportSpan)
	return s, nil
}

// closeShards drops every manager connection.
func (s *Store) closeShards() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.shards {
		if st.mc != nil {
			st.mc.Close()
		}
	}
}

// spanBatch is how many completed spans accumulate before a batch ships to
// the manager.
const spanBatch = 64

// exportSpan is the client Obs's span sink: completed spans are batched and
// shipped to the manager's span ring (best effort), where the nvmctl
// collector finds them after this client exits. A full batch is sent on its
// own goroutine so recording never blocks on a manager round trip.
func (s *Store) exportSpan(sp obs.Span) {
	s.pendingMu.Lock()
	s.pending = append(s.pending, proto.Span(sp))
	var batch []proto.Span
	if len(s.pending) >= spanBatch {
		batch = s.pending
		s.pending = nil
	}
	s.pendingMu.Unlock()
	if batch == nil {
		return
	}
	s.exports.Add(1)
	go func() {
		defer s.exports.Done()
		s.shipSpans(batch)
	}()
}

// flushSpans synchronously ships any batched spans (best effort).
func (s *Store) flushSpans() {
	s.pendingMu.Lock()
	batch := s.pending
	s.pending = nil
	s.pendingMu.Unlock()
	if len(batch) == 0 {
		return
	}
	s.shipSpans(batch)
}

// shipSpans sends one batch to the manager's span ring. A lost batch is not
// retried but counted (rpc.span_export_errors), so a trace missing its
// client half is visible as such.
func (s *Store) shipSpans(batch []proto.Span) {
	if _, err := s.callShard(0, proto.ManagerReq{Op: proto.OpReportSpans, Spans: batch}); err != nil {
		s.m.spanExportErrs.Inc()
	}
}

// startChild begins a span joined to sc, or nothing when sc carries no
// parent span (an untraced convenience op).
func (s *Store) startChild(sc store.SpanInfo, name string) *obs.ActiveSpan {
	if !sc.Traced() {
		return nil
	}
	sp := s.obs.StartSpan(sc.Trace, sc.Parent, name)
	sp.SetVar(sc.Var)
	return sp
}

// nShards returns the number of manager shards the client currently knows.
func (s *Store) nShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}

// shardClient returns the metadata client and cached epoch for shard i,
// dialing the shard on first use (shards learned from a piggybacked peer
// list start undialed).
func (s *Store) shardClient(i int) (*ManagerClient, int64, error) {
	s.mu.Lock()
	if i < 0 || i >= len(s.shards) {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("nvm store: no shard %d (shard map has %d)", i, len(s.shards))
	}
	st := s.shards[i]
	if st.mc != nil {
		mc, ep := st.mc, st.epoch
		s.mu.Unlock()
		return mc, ep, nil
	}
	addr := st.addr
	s.mu.Unlock()
	mc, err := DialManager(addr, s.opts.CallTimeout)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Another caller may have raced the dial, or the roster may have been
	// rebuilt underneath us; an installed client wins.
	if i < len(s.shards) && s.shards[i].addr == addr {
		if s.shards[i].mc == nil {
			s.shards[i].mc = mc
		} else {
			mc.Close()
		}
		return s.shards[i].mc, s.shards[i].epoch, nil
	}
	mc.Close()
	return nil, 0, fmt.Errorf("nvm store: shard map changed while dialing shard %d", i)
}

// absorbShardStamp installs the shard-map piggyback of a manager response:
// the responding shard's membership epoch and — when the response carries a
// peer list that differs from the client's roster — the full shard roster
// (new shards dial lazily on first use). force installs the epoch even
// backwards: a fence proved the cached epoch wrong in an unknown direction
// (a restarted shard's epoch is LOWER than the cache). Pre-shard managers
// stamp nothing (all zero) and are ignored.
func (s *Store) absorbShardStamp(resp proto.ManagerResp, force bool) {
	if resp.ShardEpoch == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if resp.ShardCount > 1 && len(resp.ShardPeers) == resp.ShardCount {
		stale := len(s.shards) != resp.ShardCount
		if !stale {
			for i, st := range s.shards {
				if st.addr != resp.ShardPeers[i] {
					stale = true
					break
				}
			}
		}
		if stale {
			byAddr := make(map[string]*shardState, len(s.shards))
			for _, st := range s.shards {
				byAddr[st.addr] = st
			}
			next := make([]*shardState, resp.ShardCount)
			for i, addr := range resp.ShardPeers {
				if st, ok := byAddr[addr]; ok {
					delete(byAddr, addr)
					next[i] = st
				} else {
					next[i] = &shardState{addr: addr}
				}
			}
			for _, st := range byAddr {
				if st.mc != nil {
					st.mc.Close()
				}
			}
			s.shards = next
			s.obs.Event("rpc", "shard-map", "",
				fmt.Sprintf("installed %d-shard roster %v", resp.ShardCount, resp.ShardPeers))
		}
	}
	if resp.ShardIndex >= 0 && resp.ShardIndex < len(s.shards) {
		if st := s.shards[resp.ShardIndex]; force || resp.ShardEpoch > st.epoch {
			st.epoch = resp.ShardEpoch
		}
	}
}

// callShardOnce issues one metadata RPC to shard i, stamping the client's
// cached membership epoch and absorbing the epoch (and any shard roster)
// the response piggybacks.
func (s *Store) callShardOnce(i int, req proto.ManagerReq) (proto.ManagerResp, error) {
	mc, epoch, err := s.shardClient(i)
	if err != nil {
		return proto.ManagerResp{}, err
	}
	req.MapEpoch = epoch
	resp, err := mc.call(req)
	if err == nil || errors.Is(err, proto.ErrStaleShardMap) {
		s.absorbShardStamp(resp, errors.Is(err, proto.ErrStaleShardMap))
	}
	return resp, err
}

// callShard is callShardOnce plus the stale-map protocol: a fence
// (ErrStaleShardMap) means the shard rejected the request BEFORE touching
// any state and piggybacked its fresh map, so one retry under the
// installed map is safe for every op — including the create-once ones the
// transport layer must never blindly replay. A name-addressed request is
// re-routed by its name, which may hash to a different shard under the
// installed roster; any other retries at shard i.
func (s *Store) callShard(i int, req proto.ManagerReq) (proto.ManagerResp, error) {
	resp, err := s.callShardOnce(i, req)
	if !errors.Is(err, proto.ErrStaleShardMap) {
		return resp, err
	}
	s.m.mapRetries.Add(1)
	detail := fmt.Sprintf("%s shard=%d: stale shard map, retrying under fresh epoch", req.Op, i)
	if req.Name != "" {
		i = shardmap.ShardFor(req.Name, s.nShards())
		detail = fmt.Sprintf("%s %q: stale shard map, re-routing", req.Op, req.Name)
	}
	s.obs.Event("rpc", "map-retry", req.TraceID, detail)
	return s.callShardOnce(i, req)
}

// shardConn is the Store as the metadata router's connection to its
// shards (router.Conn).
type shardConn struct{ s *Store }

func (c shardConn) Shards() int      { return c.s.nShards() }
func (c shardConn) ChunkSize() int64 { return c.s.chunkSize }

// Call is callShard. The router releases remote holds best effort and
// drops the error, so a failed release is reported here.
func (c shardConn) Call(_ store.Ctx, shard int, req proto.ManagerReq) (proto.ManagerResp, error) {
	resp, err := c.s.callShard(shard, req)
	if err != nil && req.Op == proto.OpReleaseRefs {
		c.s.obs.Event("rpc", "release-failed", req.TraceID,
			fmt.Sprintf("shard=%d chunks=%d err=%v (holds leak until re-released)", shard, len(req.IDs), err))
	}
	return resp, err
}

// statusAll fans OpStatus out to every shard and returns the responses of
// the reachable ones. A shard that cannot be reached is skipped — a killed
// shard must not take the survivors' keyspaces down with it — but at least
// one shard must answer.
func (s *Store) statusAll() ([]proto.ManagerResp, error) {
	n := s.nShards()
	resps := make([]proto.ManagerResp, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.callShard(i, proto.ManagerReq{Op: proto.OpStatus})
		}(i)
	}
	wg.Wait()
	var ok []proto.ManagerResp
	var firstErr error
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		ok = append(ok, resps[i])
	}
	if len(ok) == 0 {
		return nil, firstErr
	}
	return ok, nil
}

// mergeBens merges per-shard benefactor tables into one cluster view:
// every shard sees the same benefactors (they register everywhere), but a
// benefactor splits its capacity across the shards (capacity/N announced
// to each) so no shard can overcommit the device — Capacity and Used
// therefore SUM across shards back to the device totals. Liveness and
// addressing come from the shard that heard the benefactor most recently;
// WriteVolume is the largest reported value (each shard tracks the same
// device counter).
func mergeBens(resps []proto.ManagerResp) []proto.BenefactorInfo {
	merged := make(map[int]proto.BenefactorInfo)
	used := make(map[int]int64)
	capacity := make(map[int]int64)
	for _, r := range resps {
		for _, b := range r.Bens {
			used[b.ID] += b.Used
			capacity[b.ID] += b.Capacity
			prev, seen := merged[b.ID]
			if !seen {
				merged[b.ID] = b
				continue
			}
			if b.WriteVolume > prev.WriteVolume {
				prev.WriteVolume = b.WriteVolume
			}
			if b.BeatAgeNanos < prev.BeatAgeNanos {
				prev.Alive, prev.Addr, prev.DebugAddr = b.Alive, b.Addr, b.DebugAddr
				prev.BeatAgeNanos = b.BeatAgeNanos
			}
			merged[b.ID] = prev
		}
	}
	out := make([]proto.BenefactorInfo, 0, len(merged))
	for id, b := range merged {
		b.Used = used[id]
		b.Capacity = capacity[id]
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Status returns the merged benefactor table across every reachable
// manager shard (see mergeBens for the merge rules).
func (s *Store) Status() ([]proto.BenefactorInfo, error) {
	resps, err := s.statusAll()
	if err != nil {
		return nil, err
	}
	return mergeBens(resps), nil
}

// Refresh re-fetches the benefactor table (picking up new registrations),
// fanning out to every manager shard and merging their views.
func (s *Store) Refresh() error {
	resps, err := s.statusAll()
	if err != nil {
		return err
	}
	bens := mergeBens(resps)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range resps {
		if r.ChunkSize > 0 {
			s.chunkSize = r.ChunkSize
		}
	}
	for _, b := range bens {
		if prev, ok := s.benAddrs[b.ID]; ok && prev != b.Addr {
			if p, ok := s.pools[b.ID]; ok {
				p.close()
				delete(s.pools, b.ID)
			}
		}
		s.benAddrs[b.ID] = b.Addr
		s.benAlive[b.ID] = b.Alive
	}
	// Fresh liveness from the manager supersedes local suspicion.
	s.suspectUntil = make(map[int]time.Time)
	return nil
}

// Close ships any unexported spans and drops every connection.
func (s *Store) Close() error {
	s.obs.SetSpanSink(nil)
	s.exports.Wait()
	s.flushSpans()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.pools {
		p.close()
	}
	var err error
	for _, st := range s.shards {
		if st.mc != nil {
			if cerr := st.mc.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// ChunkSize returns the striping unit.
func (s *Store) ChunkSize() int64 { return s.chunkSize }

// ReleaseChunk returns a chunk payload obtained from GetChunk to the
// store's buffer arena. The buffer must not be used afterwards. Buffers of
// foreign geometry are ignored safely, so callers can release
// unconditionally.
func (s *Store) ReleaseChunk(buf []byte) { s.arena.Put(buf) }

// Manager exposes the shard-0 metadata client — the whole cluster on an
// unsharded deployment. Name-routed metadata on a sharded cluster should go
// through the Store's file calls or a StoreClient, which route by the
// cached shard map.
func (s *Store) Manager() *ManagerClient {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[0].mc
}

// ShardAddrs returns the manager address of every shard in the client's
// current map, in shard order.
func (s *Store) ShardAddrs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.shards))
	for i, st := range s.shards {
		out[i] = st.addr
	}
	return out
}

// ShardEpochs returns the client's cached membership epoch per shard (0
// for a shard no response has stamped yet).
func (s *Store) ShardEpochs() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.shards))
	for i, st := range s.shards {
		out[i] = st.epoch
	}
	return out
}

// ShardManager returns the metadata client for one shard, dialing it on
// demand — unlike Manager it reaches past shard 0. Calls made through it
// carry no map epoch, so they are never fenced (admin traffic).
func (s *Store) ShardManager(i int) (*ManagerClient, error) {
	mc, _, err := s.shardClient(i)
	return mc, err
}

// Stats returns a snapshot of the data-path counters. It is a
// compatibility shim over the Obs metrics registry (all zeros when the
// store was opened with obs.Disabled()).
func (s *Store) Stats() Stats {
	return Stats{
		ChunkGets:      s.m.chunkGets.Load(),
		ChunkPuts:      s.m.chunkPuts.Load(),
		PagePuts:       s.m.pagePuts.Load(),
		SSDReadBytes:   s.m.ssdReadBytes.Load(),
		SSDWriteBytes:  s.m.ssdWriteBytes.Load(),
		MapRetries:     s.m.mapRetries.Load(),
		InFlightPeak:   s.m.inFlightPeak.Load(),
		Retries:        s.m.retries.Load(),
		Failovers:      s.m.failovers.Load(),
		DegradedWrites: s.m.degradedWrites.Load(),
	}
}

// Obs exposes the client's observability state (metrics registry and
// span ring) so applications can export or inspect it.
func (s *Store) Obs() *obs.Obs { return s.obs }

// pool returns the connection pool for the benefactor holding ref.
func (s *Store) pool(ref proto.ChunkRef) (*pool[*chunkConn], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pools[ref.Benefactor]; ok {
		return p, nil
	}
	addr, ok := s.benAddrs[ref.Benefactor]
	if !ok || addr == "" {
		return nil, fmt.Errorf("%w: benefactor %d has no address", proto.ErrBenefactorDead, ref.Benefactor)
	}
	dial := func(a string) (*chunkConn, error) {
		return dialChunk(a, s.opts.Dial, s.opts.DialTimeout, s.opts.CallTimeout,
			s.arena, maxPayloadFor(s.chunkSize))
	}
	p := newPool(addr, s.opts.PoolSize, dial)
	p.wait, p.obs = s.m.poolWait, s.obs
	s.pools[ref.Benefactor] = p
	return p, nil
}

// benLive reports the manager's last-known liveness of a benefactor
// (unknown means alive — optimism costs at most a retry budget).
func (s *Store) benLive(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	alive, ok := s.benAlive[id]
	return !ok || alive
}

// markSuspect deprioritizes a benefactor for reads after a retry budget was
// exhausted against it.
func (s *Store) markSuspect(id int) {
	if s.opts.SuspectWindow <= 0 {
		return
	}
	s.mu.Lock()
	s.suspectUntil[id] = time.Now().Add(s.opts.SuspectWindow)
	s.mu.Unlock()
}

// readOrder sorts a chunk's replicas for a read attempt: benefactors the
// manager reports alive and that are not locally suspect first, then
// suspects, then dead ones (last-resort — the manager's view may be stale).
func (s *Store) readOrder(refs []proto.ChunkRef) []proto.ChunkRef {
	if len(refs) <= 1 {
		return refs
	}
	s.mu.Lock()
	now := time.Now()
	rank := func(ref proto.ChunkRef) int {
		if alive, ok := s.benAlive[ref.Benefactor]; ok && !alive {
			return 2
		}
		if until, ok := s.suspectUntil[ref.Benefactor]; ok && now.Before(until) {
			return 1
		}
		return 0
	}
	out := make([]proto.ChunkRef, len(refs))
	copy(out, refs)
	ranks := make([]int, len(out))
	for i, ref := range out {
		ranks[i] = rank(ref)
	}
	s.mu.Unlock()
	// Stable insertion sort: replica lists are tiny and primary-first order
	// must survive within a rank.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && ranks[j] < ranks[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
			ranks[j], ranks[j-1] = ranks[j-1], ranks[j]
		}
	}
	return out
}

// callChunk performs one chunk RPC against one replica, retrying transient
// transport failures with backoff up to the policy's attempt budget. Each
// attempt's round trip is timed into the op's latency histogram.
func (s *Store) callChunk(ref proto.ChunkRef, req proto.ChunkReq) (proto.ChunkResp, error) {
	lat := s.m.opLatency(req.Op)
	var last error
	for attempt := 1; attempt <= s.opts.Retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			s.m.retries.Add(1)
			s.obs.Event("rpc", "retry", req.TraceID,
				fmt.Sprintf("%s %v attempt=%d err=%v", req.Op, ref, attempt, last))
			time.Sleep(s.opts.Retry.backoff(attempt - 1))
		}
		p, err := s.pool(ref)
		if err != nil {
			return proto.ChunkResp{}, err // no address: only failover can help
		}
		s.m.enter()
		start := time.Now()
		resp, err := chunkCall(p, req)
		if lat != nil {
			lat.Observe(time.Since(start))
		}
		s.m.exit()
		if err == nil || !IsTransient(err) {
			return resp, err
		}
		last = err
	}
	s.markSuspect(ref.Benefactor)
	return proto.ChunkResp{}, last
}

// Create reserves a file of the given size.
func (s *Store) Create(name string, size int64) error {
	_, err := s.meta.Create(nil, name, size)
	return err
}

// Stat returns a file's metadata, as the manager holds it now.
func (s *Store) Stat(name string) (proto.FileInfo, error) { return s.meta.Lookup(nil, name) }

// Delete removes a file.
func (s *Store) Delete(name string) error { return s.meta.Delete(nil, name) }

// Link appends the part files' chunks to dst (the zero-copy checkpoint
// merge of §III-E) and returns dst's post-link chunk map.
func (s *Store) Link(dst string, parts []string) (proto.FileInfo, error) {
	return s.meta.Link(nil, dst, parts)
}

// getChunk fetches one chunk payload, failing over across its replicas: a
// replica whose benefactor is dead, wedged, or resetting connections costs
// a bounded retry burst, then the next copy serves the read. ErrNoSuchChunk
// is terminal — the chunk map is stale and only a re-lookup can help.
func (s *Store) getChunk(sc store.SpanInfo, refs []proto.ChunkRef) ([]byte, error) {
	sp := s.startChild(sc, "rpc.get_chunk")
	data, err := s.getChunkSpanned(sp, sc, refs)
	sp.AddBytes(int64(len(data)))
	sp.SetErr(err)
	sp.End()
	return data, err
}

func (s *Store) getChunkSpanned(sp *obs.ActiveSpan, sc store.SpanInfo, refs []proto.ChunkRef) ([]byte, error) {
	tid := sc.Trace
	var firstErr error
	for i, ref := range s.readOrder(refs) {
		resp, err := s.callChunk(ref, proto.ChunkReq{
			Op: proto.OpGetChunk, TraceID: tid, ParentSpanID: sp.ID(), VarName: sc.Var, ID: ref.ID,
		})
		if err == nil {
			if i > 0 {
				s.m.failovers.Add(1)
				s.obs.Event("rpc", "failover", tid,
					fmt.Sprintf("read %v served by replica %d (primary %v failed: %v)", ref, i, refs[0], firstErr))
			}
			s.m.chunkGets.Add(1)
			s.m.ssdReadBytes.Add(int64(len(resp.Data)))
			return resp.Data, nil
		}
		if errors.Is(err, proto.ErrNoSuchChunk) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// putRefs ships one chunk RPC to every replica of a chunk: manager-dead
// benefactors are skipped (unless every copy is thought dead — then the
// liveness table itself may be stale and each is attempted), live ones that
// still fail degrade the write. The write succeeds if at least one copy
// lands; reaching fewer than all replicas bumps DegradedWrites and repair
// restores the missing copies later.
func (s *Store) putRefs(sp *obs.ActiveSpan, sc store.SpanInfo, refs []proto.ChunkRef, mkReq func(proto.ChunkRef) proto.ChunkReq) error {
	tid := sc.Trace
	liveThought := 0
	for _, ref := range refs {
		if s.benLive(ref.Benefactor) {
			liveThought++
		}
	}
	wrote := 0
	var firstErr error
	for _, ref := range refs {
		if liveThought > 0 && !s.benLive(ref.Benefactor) {
			continue
		}
		req := mkReq(ref)
		req.TraceID = tid
		req.ParentSpanID = sp.ID()
		req.VarName = sc.Var
		_, err := s.callChunk(ref, req)
		if err != nil {
			if errors.Is(err, proto.ErrNoSuchChunk) {
				return err // stale chunk map: re-lookup, not degradation
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		wrote++
	}
	if wrote == 0 {
		if firstErr != nil {
			return firstErr
		}
		return fmt.Errorf("%w: no live replica of chunk %v", proto.ErrBenefactorDead, refs[0])
	}
	if wrote < len(refs) {
		s.m.degradedWrites.Add(1)
		s.obs.Event("rpc", "degraded-write", tid,
			fmt.Sprintf("chunk %v reached %d/%d replicas (first error: %v)", refs[0], wrote, len(refs), firstErr))
	}
	return nil
}

// putChunk stores one full chunk payload on all (live) replicas.
func (s *Store) putChunk(sc store.SpanInfo, refs []proto.ChunkRef, data []byte) error {
	sp := s.startChild(sc, "rpc.put_chunk")
	sp.AddBytes(int64(len(data)))
	err := s.putRefs(sp, sc, refs, func(ref proto.ChunkRef) proto.ChunkReq {
		return proto.ChunkReq{Op: proto.OpPutChunk, ID: ref.ID, Data: data}
	})
	sp.SetErr(err)
	sp.End()
	if err != nil {
		return err
	}
	s.m.chunkPuts.Add(1)
	s.m.ssdWriteBytes.Add(int64(len(data)))
	return nil
}

// putPages ships only the dirty pages of a chunk (paper Table VII) to all
// (live) replicas: the benefactor applies them server-side, so a sparsely
// dirtied chunk costs its dirty bytes, not a whole-chunk transfer.
func (s *Store) putPages(sc store.SpanInfo, refs []proto.ChunkRef, offs []int64, pages [][]byte) error {
	sp := s.startChild(sc, "rpc.put_pages")
	for _, pg := range pages {
		sp.AddBytes(int64(len(pg)))
	}
	err := s.putRefs(sp, sc, refs, func(ref proto.ChunkRef) proto.ChunkReq {
		return proto.ChunkReq{Op: proto.OpPutPages, ID: ref.ID, PageOffs: offs, PageData: pages}
	})
	sp.SetErr(err)
	sp.End()
	if err != nil {
		return err
	}
	s.m.pagePuts.Add(1)
	for _, pg := range pages {
		s.m.ssdWriteBytes.Add(int64(len(pg)))
	}
	return nil
}
