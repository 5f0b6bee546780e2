package rpc

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"nvmalloc/internal/manager"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
)

// ManagerConfig tunes a ManagerServer beyond the chunk geometry.
type ManagerConfig struct {
	// Replication is the number of copies kept of each chunk (1 = the
	// paper's unreplicated baseline). Copies land on distinct benefactors.
	Replication int
	// HeartbeatTimeout is how stale a benefactor's heartbeat may be before
	// the sweep declares it dead. 0 keeps the manager default (5s).
	HeartbeatTimeout time.Duration
	// SweepInterval is the server's clock tick for the death sweep; every
	// tick marks benefactors with expired heartbeats dead, so failover and
	// placement react even when no client polls Status. 0 derives half the
	// heartbeat timeout; negative disables the tick.
	SweepInterval time.Duration
	// DebugAddr, when non-empty, serves the manager's observability state
	// over HTTP (/metrics, /healthz, /spans, /debug/pprof) on that address.
	DebugAddr string
	// Obs receives the manager's metrics and events. Nil gets a fresh
	// obs.New("manager"); obs.Disabled() silences instrumentation.
	Obs *obs.Obs
	// Monitor configures continuous self-monitoring on the server's Obs:
	// periodic registry sampling into a bounded time series, and alert
	// rules whose firing state degrades /healthz from 200 to 503. The
	// zero value disables it.
	Monitor obs.MonitorConfig
	// ShardIndex/ShardCount place this manager in an N-shard metadata
	// plane (§16): it owns the variable names shardmap.ShardFor routes to
	// ShardIndex and mints chunk IDs congruent to ShardIndex+1 mod
	// ShardCount. ShardCount <= 1 is the unsharded default.
	ShardIndex int
	ShardCount int
	// Peers lists every shard's manager address, indexed by shard, so
	// clients learn the whole plane from any one shard's responses. May be
	// empty (clients then dial only the addresses they were given).
	Peers []string
	// Incidents configures the on-disk incident recorder: when Dir is
	// non-empty, every alert rule's pending→firing edge (and the
	// /incidents/capture debug endpoint) snapshots a diagnostic bundle
	// there. The zero value disables it.
	Incidents obs.IncidentConfig
}

// managerMetrics holds the manager server's registry handles, looked up
// once at startup.
type managerMetrics struct {
	opLat      map[proto.Op]*obs.Histogram
	underRepl  *obs.Gauge // chunks short of the replica target (refreshed per sweep/Status)
	maxBeatAge *obs.Gauge // stalest live heartbeat in nanos (refreshed per sweep/Status)
	liveBens   *obs.Gauge
	usedBytes  *obs.Gauge // live benefactors' occupancy (refreshed per sweep)
	capBytes   *obs.Gauge
	deaths     *obs.Counter
	repaired   *obs.Counter
	repairFail *obs.Counter
}

var managerOps = []proto.Op{
	proto.OpRegister, proto.OpBeat, proto.OpCreate, proto.OpLookup,
	proto.OpDelete, proto.OpSetTTL,
	proto.OpExpire, proto.OpRemap, proto.OpStatus, proto.OpMarkDead,
	proto.OpRepair, proto.OpReportSpans,
	proto.OpExportRange, proto.OpRetainRefs, proto.OpLinkRefs, proto.OpReleaseRefs,
}

func newManagerMetrics(o *obs.Obs) managerMetrics {
	m := managerMetrics{
		opLat:      make(map[proto.Op]*obs.Histogram, len(managerOps)),
		underRepl:  o.Reg.Gauge("manager.under_replicated"),
		maxBeatAge: o.Reg.Gauge("manager.max_beat_age_nanos"),
		liveBens:   o.Reg.Gauge("manager.live_benefactors"),
		usedBytes:  o.Reg.Gauge("manager.used_bytes"),
		capBytes:   o.Reg.Gauge("manager.capacity_bytes"),
		deaths:     o.Reg.Counter("manager.benefactor_deaths"),
		repaired:   o.Reg.Counter("manager.chunks_repaired"),
		repairFail: o.Reg.Counter("manager.repair_failures"),
	}
	for _, op := range managerOps {
		m.opLat[op] = o.Reg.Histogram(fmt.Sprintf("manager.op.%s.latency", op))
	}
	return m
}

// ManagerServer serves the metadata service over TCP.
type ManagerServer struct {
	mu  sync.Mutex
	mgr *manager.Manager
	l   net.Listener
	// benPools holds one single-stream pool per benefactor for
	// server-driven operations (chunk deletion, COW copies, repair). It
	// sits under poolsMu, not mu: copies and deletes run with mu released.
	poolsMu   sync.Mutex
	benPools  map[int]*pool[*chunkConn]
	start     time.Time
	stop      chan struct{}
	conns     *connSet
	closeOnce sync.Once
	// arena leases payload buffers for server-driven chunk moves (COW
	// copies, repair) over binary-framed benefactor connections.
	arena *proto.Arena
	// peers is the shard address list stamped on every response so clients
	// discover the whole metadata plane from any one shard.
	peers []string

	obs *obs.Obs
	mm  managerMetrics
	dbg *obs.DebugServer
}

// NewManagerServer starts an unreplicated manager on addr (e.g.
// "127.0.0.1:0") with default fault-handling config.
func NewManagerServer(addr string, chunkSize int64, policy manager.PlacementPolicy) (*ManagerServer, error) {
	return NewManagerServerWith(addr, chunkSize, policy, ManagerConfig{})
}

// NewManagerServerWith starts a manager on addr with explicit replication
// and failure-detection settings.
func NewManagerServerWith(addr string, chunkSize int64, policy manager.PlacementPolicy, cfg ManagerConfig) (*ManagerServer, error) {
	if cfg.ShardCount > 1 {
		if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount {
			return nil, fmt.Errorf("rpc: shard %d/%d out of range", cfg.ShardIndex, cfg.ShardCount)
		}
		if len(cfg.Peers) != 0 && len(cfg.Peers) != cfg.ShardCount {
			return nil, fmt.Errorf("rpc: %d peer addresses for %d shards", len(cfg.Peers), cfg.ShardCount)
		}
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New("manager")
	}
	s := &ManagerServer{
		mgr:      manager.New(chunkSize, policy),
		l:        l,
		benPools: make(map[int]*pool[*chunkConn]),
		start:    time.Now(),
		stop:     make(chan struct{}),
		conns:    newConnSet(),
		arena:    proto.NewArena(chunkSize),
		peers:    append([]string(nil), cfg.Peers...),
		obs:      cfg.Obs,
		mm:       newManagerMetrics(cfg.Obs),
	}
	if cfg.ShardCount > 1 {
		s.mgr.SetShard(cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.Replication > 1 {
		s.mgr.Replication = cfg.Replication
	}
	if cfg.HeartbeatTimeout > 0 {
		s.mgr.HeartbeatTimeout = cfg.HeartbeatTimeout
	}
	// Identity rides 503 healthz bodies and incident bundles: which
	// keyspace is degraded, under which membership epoch. Shard placement
	// is fixed at startup, but the epoch is live manager state, so the
	// provider takes the server lock.
	node := s.obs.Identity().Node
	idx, n := s.mgr.Shard()
	if n <= 1 {
		idx, n = 0, 1
	}
	s.obs.SetIdentityFunc(func() obs.Identity {
		s.mu.Lock()
		epoch := s.mgr.Epoch()
		s.mu.Unlock()
		return obs.Identity{Node: node, Shard: idx, NShards: n, Epoch: epoch}
	})
	if cfg.Incidents.Dir != "" {
		ir, err := obs.NewIncidentRecorder(s.obs, cfg.Incidents)
		if err != nil {
			l.Close()
			return nil, err
		}
		s.obs.SetIncidents(ir)
	}
	if cfg.DebugAddr != "" {
		dbg, err := obs.ServeDebug(cfg.DebugAddr, s.obs)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("rpc: manager debug server: %w", err)
		}
		s.dbg = dbg
	}
	sweep := cfg.SweepInterval
	if sweep == 0 {
		sweep = s.mgr.HeartbeatTimeout / 2
	}
	if sweep > 0 {
		go s.sweepLoop(sweep)
	}
	s.obs.StartMonitor(cfg.Monitor)
	go serve(l, s.conns, s.serveConn)
	return s, nil
}

// serveConn runs one manager connection. Manager traffic is low-rate
// metadata, so it stays on gob envelopes; only the benefactor data path
// speaks NVM1 binary frames.
func (s *ManagerServer) serveConn(conn net.Conn) {
	serveGob(conn, s.handle)
}

// sweepLoop expires stale heartbeats on a clock tick, so benefactor death
// takes effect on the real path without waiting for a Status poll.
func (s *ManagerServer) sweepLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			s.sweepLocked()
			s.mu.Unlock()
		}
	}
}

// sweepLocked expires stale heartbeats and refreshes the liveness gauges
// (live benefactor count, stalest heartbeat age, under-replication
// backlog). Called with s.mu held.
func (s *ManagerServer) sweepLocked() {
	now := s.now()
	for _, id := range s.mgr.Sweep(now) {
		s.mm.deaths.Inc()
		s.obs.Event("manager", "death", "", fmt.Sprintf("benefactor %d heartbeat expired", id))
	}
	live, maxAge := 0, time.Duration(0)
	for _, b := range s.mgr.Status() {
		if !b.Alive {
			continue
		}
		live++
		if age, ok := s.mgr.BeatAge(b.ID, now); ok && age > maxAge {
			maxAge = age
		}
	}
	s.mm.liveBens.Set(int64(live))
	s.mm.maxBeatAge.Set(int64(maxAge))
	s.mm.underRepl.Set(int64(s.mgr.UnderReplicatedCount()))
	used, capacity := s.mgr.CapacitySummary()
	s.mm.usedBytes.Set(used)
	s.mm.capBytes.Set(capacity)
}

// Addr returns the listening address.
func (s *ManagerServer) Addr() string { return s.l.Addr().String() }

// SetPeers installs the shard address roster stamped on every response
// (one address per shard, indexed by shard). Deployments that bind
// ephemeral ports — test rigs in particular — call it once every shard's
// listener is up, before clients connect.
func (s *ManagerServer) SetPeers(peers []string) error {
	_, n := s.mgr.Shard()
	if len(peers) != 0 && n > 1 && len(peers) != n {
		return fmt.Errorf("rpc: %d peer addresses for %d shards", len(peers), n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers = append([]string(nil), peers...)
	return nil
}

// DebugAddr returns the observability endpoint's address ("" when the
// server runs without one).
func (s *ManagerServer) DebugAddr() string { return s.dbg.Addr() }

// Obs exposes the server's observability state (tests and embedders).
func (s *ManagerServer) Obs() *obs.Obs { return s.obs }

// Close stops the server, its sweep loop, and its benefactor connections.
// Close is idempotent.
func (s *ManagerServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.stop)
		s.obs.StopMonitor()
		s.obs.Incidents().Wait() // finish any in-flight bundle capture
		err = s.l.Close()
		s.dbg.Close()
		s.conns.closeAll()
		s.poolsMu.Lock()
		for id, p := range s.benPools {
			p.close()
			delete(s.benPools, id)
		}
		s.poolsMu.Unlock()
	})
	return err
}

func (s *ManagerServer) now() time.Duration { return time.Since(s.start) }

// benPool returns benefactor id's connection pool, made for addr if the
// benefactor has none. Safe with or without s.mu held: the caller resolved
// addr (Manager.Addr) while it held s.mu.
func (s *ManagerServer) benPool(id int, addr string) (*pool[*chunkConn], error) {
	s.poolsMu.Lock()
	defer s.poolsMu.Unlock()
	if p, ok := s.benPools[id]; ok {
		return p, nil
	}
	if addr == "" {
		return nil, proto.ErrBenefactorDead
	}
	p := newPool(addr, 1, func(addr string) (*chunkConn, error) {
		return dialChunk(addr, nil, serverDialTimeout, serverCallTimeout,
			s.arena, maxPayloadFor(s.mgr.ChunkSize()))
	})
	s.benPools[id] = p
	return p, nil
}

// addrsOf snapshots the transport addresses of the benefactors fx names,
// for dialing them with s.mu released. Called with s.mu held.
func (s *ManagerServer) addrsOf(fx manager.Effects) func(int) string {
	addrs := make(map[int]string)
	for _, cp := range fx.Copies {
		addrs[cp.Src.Benefactor] = s.mgr.Addr(cp.Src.Benefactor)
		for _, dst := range cp.Dsts {
			addrs[dst.Benefactor] = s.mgr.Addr(dst.Benefactor)
		}
	}
	for _, b := range fx.Deletes {
		addrs[b.Ben] = s.mgr.Addr(b.Ben)
	}
	return func(id int) string { return addrs[id] }
}

// stampShardLocked piggybacks the shard map on every response (§16):
// membership epoch, this shard's index, the shard count, and the peer
// address list. Pre-shard clients ignore the fields (gob drops unknowns).
func (s *ManagerServer) stampShardLocked(resp *proto.ManagerResp) {
	resp.ShardEpoch = s.mgr.Epoch()
	resp.ShardIndex, resp.ShardCount = s.mgr.Shard()
	resp.ShardPeers = s.peers
}

// handle serves one manager request as DESIGN.md §9 drives manager.Apply:
// Apply under s.mu; while it leaves payload copies, run them with s.mu
// released and Commit their outcome under it again; then release s.mu and
// delete the freed chunks. No benefactor round trip runs under s.mu. The
// reply follows the deletes: a client that sees Delete return finds the
// space reclaimed on the benefactors too.
func (s *ManagerServer) handle(dec *gob.Decoder, enc *gob.Encoder) error {
	var req proto.ManagerReq
	if err := dec.Decode(&req); err != nil {
		return err
	}
	opStart := time.Now()
	s.mu.Lock()
	if req.Op == proto.OpStatus || req.Op == proto.OpRepair {
		s.sweepLocked() // expire stale heartbeats before reporting or repairing
	}
	resp, fx := s.mgr.Apply(&req, s.now())
	if resp.Err == "" {
		s.noteLocked(&req, &resp)
	}
	for len(fx.Copies) > 0 {
		addrOf := s.addrsOf(fx)
		s.mu.Unlock()
		errs := make([][]error, len(fx.Copies))
		for i, cp := range fx.Copies {
			errs[i] = s.copyChunk(cp.Src, cp.Dsts, addrOf)
		}
		s.noteCopies(&req, fx.Copies, errs)
		s.mu.Lock()
		fx = s.mgr.Commit(&resp, fx, errs)
	}
	if req.Op == proto.OpRepair {
		if len(resp.Lost) > 0 {
			s.obs.Event("manager", "data-loss", req.TraceID, fmt.Sprintf("%d chunks with no live copy", len(resp.Lost)))
		}
		s.mm.repaired.Add(int64(resp.Repaired))
		s.mm.repairFail.Add(int64(resp.RepairFailed))
		s.mm.underRepl.Set(int64(s.mgr.UnderReplicatedCount()))
	}
	var addrOf func(int) string
	if len(fx.Deletes) > 0 {
		addrOf = s.addrsOf(fx)
	}
	s.stampShardLocked(&resp)
	s.mu.Unlock()
	if len(fx.Deletes) > 0 {
		s.deleteChunks(fx.Deletes, addrOf)
	}
	s.mm.opLat[req.Op].Observe(time.Since(opStart))
	// A span-traced request (it names a parent span) gets a manager-side
	// child span under the client's parent; untraced ones (heartbeats,
	// status polls, convenience ops, older clients) record nothing.
	if req.ParentSpanID != "" && req.Op != proto.OpReportSpans {
		sp := s.obs.StartSpanAt(req.TraceID, req.ParentSpanID, "manager."+string(req.Op), opStart.UnixNano())
		sp.SetVar(req.Name)
		sp.SetErr(proto.WireErr(resp.Err))
		sp.End()
	}
	return enc.Encode(&resp)
}

// noteLocked does the transport's share of a request Apply accepted:
// connection bookkeeping, client spans, the debug address, metrics and
// events. Called with s.mu held.
func (s *ManagerServer) noteLocked(req *proto.ManagerReq, resp *proto.ManagerResp) {
	switch req.Op {
	case proto.OpRegister:
		// Re-registration may change the address: close the old pool (a
		// connection in use is closed when its call returns it), so the
		// next server-driven call dials afresh.
		s.poolsMu.Lock()
		if p, ok := s.benPools[req.BenID]; ok {
			p.close()
			delete(s.benPools, req.BenID)
		}
		s.poolsMu.Unlock()
		if len(resp.FenceChunks) > 0 {
			s.obs.Event("manager", "fence-rejoin", req.TraceID,
				fmt.Sprintf("benefactor %d: %d stale copies fenced", req.BenID, len(resp.FenceChunks)))
		}
		s.obs.Event("manager", "register", req.TraceID,
			fmt.Sprintf("benefactor %d node=%d addr=%s capacity=%d", req.BenID, req.BenNode, req.BenAddr, req.Capacity))
	case proto.OpMarkDead:
		s.mm.deaths.Inc()
		s.obs.Event("manager", "markdead", req.TraceID, fmt.Sprintf("benefactor %d declared dead", req.BenID))
	case proto.OpStatus:
		resp.DebugAddr = s.dbg.Addr()
	case proto.OpReportSpans:
		// Client-exported spans are ingested (never re-exported — the
		// sink must not fire, or an in-process client sharing this Obs
		// would loop) so traces rooted in short-lived clients survive
		// here for the collector. The manager's own slow threshold
		// re-applies, feeding its flight recorder.
		for _, ps := range req.Spans {
			s.obs.IngestSpan(obs.Span(ps))
		}
	}
}

// noteCopies records each failed server-driven copy, and each repair
// copy that landed, as an event.
func (s *ManagerServer) noteCopies(req *proto.ManagerReq, copies []manager.Copy, errs [][]error) {
	kind := "remap-copy"
	if req.Op == proto.OpRepair {
		kind = "repair"
	}
	for i, cp := range copies {
		for j, dst := range cp.Dsts {
			if err := errs[i][j]; err != nil {
				s.obs.Event("manager", kind+"-failed", req.TraceID, fmt.Sprintf("copy %v -> %v: %v", cp.Src, dst, err))
			} else if req.Op == proto.OpRepair {
				s.obs.Event("manager", kind, req.TraceID, fmt.Sprintf("copied %v -> %v", cp.Src, dst))
			}
		}
	}
}

// deleteChunks physically removes freed chunks on their benefactors: one
// delete frame per benefactor naming all of its chunks, the frames to
// different benefactors in flight at once. It runs with s.mu released —
// chunk IDs are never reused and a committed transition leaves the freed
// refs unreachable from the manager's tables, so a late delete can only
// meet a stale client map (ErrNoSuchChunk), never a chunk the manager
// still hands out. addrOf is the addrsOf snapshot taken under s.mu.
// Failures are not reported: a dead benefactor has nothing to clean.
func (s *ManagerServer) deleteChunks(batches []manager.Batch, addrOf func(int) string) {
	del := func(b manager.Batch) {
		if p, err := s.benPool(b.Ben, addrOf(b.Ben)); err == nil {
			_, _ = chunkCall(p, proto.ChunkReq{Op: proto.OpDeleteChunk, ID: b.IDs[0], MoreIDs: b.IDs[1:]})
		}
	}
	var wg sync.WaitGroup
	for _, b := range batches[1:] {
		wg.Add(1)
		go func(b manager.Batch) {
			defer wg.Done()
			del(b)
		}(b)
	}
	del(batches[0])
	wg.Wait()
}

// copyChunk copies src's payload onto every dst — the server-side COW and
// repair copy — and reports one error per dst. A lone destination on src's
// own benefactor is copied there without crossing the network; otherwise
// the payload is fetched once and written to all destinations at once. Runs
// without s.mu, so addrOf is the addrsOf snapshot taken under it.
func (s *ManagerServer) copyChunk(src proto.ChunkRef, dsts []proto.ChunkRef, addrOf func(int) string) []error {
	errs := make([]error, len(dsts))
	fail := func(err error) []error {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	from, err := s.benPool(src.Benefactor, addrOf(src.Benefactor))
	if err != nil {
		return fail(err)
	}
	if len(dsts) == 1 && dsts[0].Benefactor == src.Benefactor {
		_, errs[0] = chunkCall(from, proto.ChunkReq{Op: proto.OpCopyChunk, ID: dsts[0].ID, SrcID: src.ID})
		return errs
	}
	data, err := chunkCall(from, proto.ChunkReq{Op: proto.OpGetChunk, ID: src.ID})
	if err != nil {
		return fail(err)
	}
	var wg sync.WaitGroup
	for i, dst := range dsts {
		wg.Add(1)
		go func(i int, dst proto.ChunkRef) {
			defer wg.Done()
			to, err := s.benPool(dst.Benefactor, addrOf(dst.Benefactor))
			if err == nil {
				_, err = chunkCall(to, proto.ChunkReq{Op: proto.OpPutChunk, ID: dst.ID, Data: data.Data})
			}
			errs[i] = err
		}(i, dst)
	}
	wg.Wait()
	s.arena.Put(data.Data)
	return errs
}
