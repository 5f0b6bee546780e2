// Package rpc runs the aggregate NVM store over real TCP: the same
// manager and benefactor logic the simulation uses (internal/manager,
// internal/benefactor), with metadata served as gob-encoded
// request/response envelopes and chunk data as NVM1 binary frames
// (internal/proto). cmd/nvmstore wraps the servers as daemons and
// cmd/nvmctl is a client; examples/realstore drives the whole stack
// in-process.
//
// Chunks live as individual files under the benefactor's directory — the
// "chunks as individual files" layout of paper §III-D — standing in for
// the node-local SSD.
package rpc

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/shardmap"
)

// FileBackend stores chunk payloads as files in a directory.
type FileBackend struct {
	dir string
	// arena, when set (SetArena), pools the per-chunk read buffer: Get
	// leases from it instead of allocating per call, and leases come back
	// via Recycle once the server has written the response. Nil falls back
	// to plain allocation.
	arena *proto.Arena
	// Device-level metrics (nil until SetObs): actual bytes moved to and
	// from the backing files, and the time each transfer took. These sit a
	// layer below the benefactor's RPC counters — the gap between them is
	// read-modify-write amplification.
	readBytes, writeBytes *obs.Counter
	readLat, writeLat     *obs.Histogram
}

// NewFileBackend creates (if needed) and uses dir for chunk files.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileBackend{dir: dir}, nil
}

// SetObs attaches device-level metrics (ssd.read_bytes, ssd.write_bytes,
// ssd.read.latency, ssd.write.latency) to the backend. Call before serving.
func (f *FileBackend) SetObs(o *obs.Obs) {
	f.readBytes = o.Reg.Counter("ssd.read_bytes")
	f.writeBytes = o.Reg.Counter("ssd.write_bytes")
	f.readLat = o.Reg.Histogram("ssd.read.latency")
	f.writeLat = o.Reg.Histogram("ssd.write.latency")
}

// SetArena attaches a chunk-geometry buffer arena; Get then leases its
// result buffers from it instead of allocating. Call before serving.
func (f *FileBackend) SetArena(a *proto.Arena) { f.arena = a }

// RetainsPut implements benefactor.BufferPolicy: Put persists the bytes
// before returning and keeps no reference, so callers' buffers go straight
// through without a defensive copy.
func (f *FileBackend) RetainsPut() bool { return false }

// PrivateGet implements benefactor.BufferPolicy: Get returns a fresh (or
// arena-leased) buffer the caller owns outright.
func (f *FileBackend) PrivateGet() bool { return true }

// Recycle implements benefactor.Recycler: a finished Get buffer returns to
// the arena (no-op without one).
func (f *FileBackend) Recycle(b []byte) { f.arena.Put(b) }

func (f *FileBackend) path(id proto.ChunkID) string {
	return filepath.Join(f.dir, fmt.Sprintf("chunk-%016x", uint64(id)))
}

// Put implements benefactor.Backend. The payload lands in a temp file in
// the same directory and is renamed into place, so a benefactor that
// crashes mid-write never leaves a torn chunk behind: readers observe
// either the whole old payload or the whole new one.
func (f *FileBackend) Put(id proto.ChunkID, data []byte) error {
	start := time.Now()
	defer func() {
		f.writeLat.Observe(time.Since(start))
		f.writeBytes.Add(int64(len(data)))
	}()
	tmp, err := os.CreateTemp(f.dir, fmt.Sprintf("chunk-%016x.tmp-*", uint64(id)))
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), f.path(id)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Get implements benefactor.Backend. With an arena attached the result is
// a pooled lease (returned later via Recycle); without one it is a plain
// per-call allocation.
func (f *FileBackend) Get(id proto.ChunkID) ([]byte, error) {
	start := time.Now()
	d, err := f.readChunk(id)
	f.readLat.Observe(time.Since(start))
	if os.IsNotExist(err) {
		return nil, proto.ErrNoSuchChunk
	}
	f.readBytes.Add(int64(len(d)))
	return d, err
}

func (f *FileBackend) readChunk(id proto.ChunkID) ([]byte, error) {
	if f.arena == nil {
		return os.ReadFile(f.path(id))
	}
	fh, err := os.Open(f.path(id))
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, err
	}
	buf := f.arena.Get(int(st.Size()))
	if _, err := io.ReadFull(fh, buf); err != nil {
		f.arena.Put(buf)
		return nil, err
	}
	return buf, nil
}

// Delete implements benefactor.Backend.
func (f *FileBackend) Delete(id proto.ChunkID) error {
	err := os.Remove(f.path(id))
	if os.IsNotExist(err) {
		return proto.ErrNoSuchChunk
	}
	return err
}

// Has implements benefactor.Backend.
func (f *FileBackend) Has(id proto.ChunkID) bool {
	_, err := os.Stat(f.path(id))
	return err == nil
}

// connSet tracks a server's accepted connections so Close can sever them.
// Killing a server must kill its in-flight conversations too — otherwise
// clients already pooled onto it would never observe the death.
type connSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func newConnSet() *connSet { return &connSet{conns: make(map[net.Conn]struct{})} }

func (cs *connSet) add(c net.Conn) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return false
	}
	cs.conns[c] = struct{}{}
	return true
}

func (cs *connSet) remove(c net.Conn) {
	cs.mu.Lock()
	delete(cs.conns, c)
	cs.mu.Unlock()
}

func (cs *connSet) closeAll() {
	cs.mu.Lock()
	cs.closed = true
	for c := range cs.conns {
		c.Close()
	}
	cs.conns = nil
	cs.mu.Unlock()
}

// serve accepts connections and runs each on its own goroutine.
func serve(l net.Listener, cs *connSet, handleConn func(conn net.Conn)) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		if !cs.add(conn) {
			conn.Close()
			return
		}
		go func() {
			defer cs.remove(conn)
			defer conn.Close()
			handleConn(conn)
		}()
	}
}

// serveGob runs one manager connection's request loop over gob envelopes
// until the peer disconnects or the stream breaks.
func serveGob(conn net.Conn, handle func(dec *gob.Decoder, enc *gob.Encoder) error) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		if err := handle(dec, enc); err != nil {
			return
		}
	}
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// wireErr maps a response error string back to a sentinel where possible.
func wireErr(s string) error {
	if s == "" {
		return nil
	}
	for _, sentinel := range []error{
		proto.ErrNoSuchFile, proto.ErrFileExists, proto.ErrNoSpace,
		proto.ErrNoSuchChunk, proto.ErrBenefactorDead, proto.ErrNoBenefactors,
		proto.ErrChunkOutOfRange, proto.ErrStaleShardMap,
	} {
		if s == sentinel.Error() {
			return sentinel
		}
		// Servers wrap sentinels with context ("%w: detail"); keep the
		// detail but restore the sentinel for errors.Is across the wire.
		if rest, ok := strings.CutPrefix(s, sentinel.Error()+":"); ok {
			return fmt.Errorf("%w:%s", sentinel, rest)
		}
	}
	return fmt.Errorf("%s", s)
}

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
	proto.OpDelete, proto.OpLink, proto.OpDerive, proto.OpSetTTL,
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
	// benConns caches client connections to benefactors for server-driven
	// operations (chunk deletion, COW copies, repair), dialed on first use.
	// It sits under connMu, not mu: the remap path copies payloads with mu
	// released.
	connMu    sync.Mutex
	benConns  map[int]*chunkConn
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
		benConns: make(map[int]*chunkConn),
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
		s.connMu.Lock()
		for id, c := range s.benConns {
			c.close()
			delete(s.benConns, id)
		}
		s.connMu.Unlock()
	})
	return err
}

func (s *ManagerServer) now() time.Duration { return time.Since(s.start) }

// benConn returns (dialing addr if needed) a connection to a benefactor.
// Safe with or without s.mu held: the caller resolved addr (Manager.Addr)
// while it held s.mu.
func (s *ManagerServer) benConn(id int, addr string) (*chunkConn, error) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if c, ok := s.benConns[id]; ok {
		return c, nil
	}
	if addr == "" {
		return nil, proto.ErrBenefactorDead
	}
	c, err := dialChunk(addr, nil, serverDialTimeout, serverCallTimeout,
		s.arena, maxPayloadFor(s.mgr.ChunkSize()))
	if err != nil {
		return nil, err
	}
	s.benConns[id] = c
	return c, nil
}

// addrsOf snapshots the transport addresses of refs' benefactors, for
// dialing them with s.mu released. Called with s.mu held.
func (s *ManagerServer) addrsOf(refs ...proto.ChunkRef) func(int) string {
	addrs := make(map[int]string, len(refs))
	for _, r := range refs {
		addrs[r.Benefactor] = s.mgr.Addr(r.Benefactor)
	}
	return func(id int) string { return addrs[id] }
}

// dropBenConn forgets a benefactor's cached connection after a failed call
// (or a re-registration); the next use redials.
func (s *ManagerServer) dropBenConn(id int) {
	s.connMu.Lock()
	delete(s.benConns, id)
	s.connMu.Unlock()
}

// routedByName reports whether an op's Name field is routed by
// shardmap.ShardFor — i.e. landing on the wrong shard means the client's
// shard map is stale (or it mis-hashed), and the request must be fenced
// rather than answered with a misleading ErrNoSuchFile.
func routedByName(op proto.Op) bool {
	switch op {
	case proto.OpCreate, proto.OpLookup, proto.OpDelete, proto.OpLink,
		proto.OpDerive, proto.OpSetTTL, proto.OpRemap,
		proto.OpExportRange, proto.OpLinkRefs:
		return true
	}
	return false
}

// fenceLocked rejects a request whose view of this shard is stale: a
// mismatched membership epoch (MapEpoch 0 is unstamped — first contact,
// benefactor and admin traffic — and is never fenced), or a name-routed op
// whose name this shard does not own. The fresh map rides back on the
// response either way, so the client installs it and retries once without
// an extra round trip.
func (s *ManagerServer) fenceLocked(req *proto.ManagerReq, resp *proto.ManagerResp) bool {
	if req.MapEpoch != 0 && req.MapEpoch != s.mgr.Epoch() {
		resp.Err = errStr(proto.ErrStaleShardMap)
		return true
	}
	if _, n := s.mgr.Shard(); n > 1 && routedByName(req.Op) {
		if idx, _ := s.mgr.Shard(); shardmap.ShardFor(req.Name, n) != idx {
			resp.Err = errStr(proto.ErrStaleShardMap)
			return true
		}
	}
	return false
}

// stampShardLocked piggybacks the shard map on every response (§16):
// membership epoch, this shard's index, the shard count, and the peer
// address list. Pre-shard clients ignore the fields (gob drops unknowns).
func (s *ManagerServer) stampShardLocked(resp *proto.ManagerResp) {
	resp.ShardEpoch = s.mgr.Epoch()
	resp.ShardIndex, resp.ShardCount = s.mgr.Shard()
	resp.ShardPeers = s.peers
}

func (s *ManagerServer) handle(dec *gob.Decoder, enc *gob.Encoder) error {
	var req proto.ManagerReq
	if err := dec.Decode(&req); err != nil {
		return err
	}
	opStart := time.Now()
	s.mu.Lock()
	var resp proto.ManagerResp
	if s.fenceLocked(&req, &resp) {
		s.stampShardLocked(&resp)
		s.mu.Unlock()
		s.mm.opLat[req.Op].Observe(time.Since(opStart))
		return enc.Encode(&resp)
	}
	switch req.Op {
	case proto.OpRegister:
		wasDead := s.mgr.Register(proto.BenefactorInfo{
			ID: req.BenID, Node: req.BenNode, Capacity: req.Capacity,
			DebugAddr: req.BenDebugAddr,
		}, req.BenAddr, s.now())
		// Re-registration may change the address: forget the old connection.
		s.dropBenConn(req.BenID)
		if wasDead {
			// A rejoin after a declared death: drop every replica claim
			// that has a live survivor (the survivors may have taken
			// writes the rejoiner missed) and ship the dropped refs back —
			// the benefactor deletes those payloads before serving reads.
			resp.FenceChunks = s.mgr.FenceRejoin(req.BenID)
			if len(resp.FenceChunks) > 0 {
				s.obs.Event("manager", "fence-rejoin", req.TraceID,
					fmt.Sprintf("benefactor %d: %d stale copies fenced", req.BenID, len(resp.FenceChunks)))
			}
		}
		s.obs.Event("manager", "register", req.TraceID,
			fmt.Sprintf("benefactor %d node=%d addr=%s capacity=%d", req.BenID, req.BenNode, req.BenAddr, req.Capacity))
	case proto.OpBeat:
		resp.Err = errStr(s.mgr.Heartbeat(req.BenID, req.WriteVolume, s.now()))
	case proto.OpCreate:
		fi, err := s.mgr.Create(req.Name, req.Size)
		resp.File, resp.Err = fi, errStr(err)
	case proto.OpLookup:
		fi, err := s.mgr.Lookup(req.Name)
		resp.File, resp.Err = fi, errStr(err)
	case proto.OpDelete:
		freed, foreignFreed, err := s.mgr.DeleteFull(req.Name)
		if err == nil {
			err = s.deleteChunks(freed)
		}
		resp.ForeignFreed, resp.Err = foreignFreed, errStr(err)
	case proto.OpLink:
		fi, held, err := s.mgr.LinkFull(req.Name, req.Parts)
		resp.File, resp.ForeignHeld, resp.Err = fi, held, errStr(err)
	case proto.OpDerive:
		fi, held, err := s.mgr.DeriveFull(req.Name, req.Src, req.FromChunk, req.NChunks, req.Size)
		resp.File, resp.ForeignHeld, resp.Err = fi, held, errStr(err)
	case proto.OpSetTTL:
		deadline := time.Duration(req.ExpiresAtNanos)
		if req.TTLNanos > 0 {
			deadline = s.now() + time.Duration(req.TTLNanos)
		}
		resp.Err = errStr(s.mgr.SetTTL(req.Name, deadline))
	case proto.OpExpire:
		expired, freed, foreignFreed := s.mgr.ExpireSweepFull(s.now())
		resp.Expired, resp.ForeignFreed = expired, foreignFreed
		resp.Err = errStr(s.deleteChunks(freed))
	case proto.OpRemap:
		s.remapLocked(&req, &resp)
	case proto.OpStatus:
		s.sweepLocked()
		resp.Bens = s.mgr.Status()
		now := s.now()
		for i := range resp.Bens {
			if age, ok := s.mgr.BeatAge(resp.Bens[i].ID, now); ok {
				resp.Bens[i].BeatAgeNanos = int64(age)
			}
		}
		resp.ChunkSize = s.mgr.ChunkSize()
		resp.UnderReplicated = s.mgr.UnderReplicatedCount()
		resp.DebugAddr = s.dbg.Addr()
	case proto.OpMarkDead:
		s.mgr.MarkDead(req.BenID)
		s.mm.deaths.Inc()
		s.obs.Event("manager", "markdead", req.TraceID, fmt.Sprintf("benefactor %d declared dead", req.BenID))
	case proto.OpRepair:
		resp.Repaired, resp.RepairFailed, resp.Lost = s.repair(req.TraceID)
	case proto.OpReportSpans:
		// Client-exported spans are ingested (never re-exported — the
		// sink must not fire, or an in-process client sharing this Obs
		// would loop) so traces rooted in short-lived clients survive
		// here for the collector. The manager's own slow threshold
		// re-applies, feeding its flight recorder.
		for _, ps := range req.Spans {
			s.obs.IngestSpan(obs.Span(ps))
		}
	case proto.OpExportRange:
		fi, err := s.mgr.ExportRange(req.Name, req.FromChunk, req.NChunks)
		resp.File, resp.Err = fi, errStr(err)
	case proto.OpRetainRefs:
		resp.Err = errStr(s.mgr.RetainRefs(req.IDs))
	case proto.OpLinkRefs:
		fi, err := s.mgr.LinkRefs(req.Name, req.Refs, req.RefReplicas, req.Size, req.CreateDst)
		resp.File, resp.Err = fi, errStr(err)
	case proto.OpReleaseRefs:
		freed := s.mgr.ReleaseRefs(req.IDs)
		resp.Err = errStr(s.deleteChunks(freed))
	default:
		resp.Err = fmt.Sprintf("manager: unknown op %q", req.Op)
	}
	s.stampShardLocked(&resp)
	s.mu.Unlock()
	s.mm.opLat[req.Op].Observe(time.Since(opStart))
	// A span-traced request (it names a parent span) gets a manager-side
	// child span under the client's parent; untraced ones (heartbeats,
	// status polls, convenience ops, older clients) record nothing.
	if req.ParentSpanID != "" && req.Op != proto.OpReportSpans {
		sp := s.obs.StartSpanAt(req.TraceID, req.ParentSpanID, "manager."+string(req.Op), opStart.UnixNano())
		sp.SetVar(req.Name)
		sp.SetErr(wireErr(resp.Err))
		sp.End()
	}
	return enc.Encode(&resp)
}

// deleteChunks physically removes freed chunks on their benefactors.
func (s *ManagerServer) deleteChunks(freed []proto.ChunkRef) error {
	for _, ref := range freed {
		c, err := s.benConn(ref.Benefactor, s.mgr.Addr(ref.Benefactor))
		if err != nil {
			continue // dead benefactor: nothing to clean
		}
		if _, err := c.call(proto.ChunkReq{Op: proto.OpDeleteChunk, ID: ref.ID}); err != nil {
			s.dropBenConn(ref.Benefactor)
		}
	}
	return nil
}

// repair re-replicates under-replicated chunks onto live benefactors.
// Called with s.mu held. The manager picks destinations and the server
// moves the payloads; a copy that fails is rolled back in the metadata so
// readers never fail over onto a promised-but-empty replica.
func (s *ManagerServer) repair(tid string) (done, failed int, lost []proto.ChunkID) {
	s.sweepLocked()
	ops, lost := s.mgr.Repair()
	for _, op := range ops {
		if err := s.copyChunk(op.Src, []proto.ChunkRef{op.Dst}, s.mgr.Addr)[0]; err != nil {
			s.mgr.DropReplica(op.Dst.ID, op.Dst)
			s.dropBenConn(op.Dst.Benefactor)
			s.mm.repairFail.Inc()
			s.obs.Event("manager", "repair-failed", tid,
				fmt.Sprintf("copy %v -> %v: %v", op.Src, op.Dst, err))
			failed++
			continue
		}
		s.mm.repaired.Inc()
		s.obs.Event("manager", "repair", tid, fmt.Sprintf("copied %v -> %v", op.Src, op.Dst))
		done++
	}
	if len(lost) > 0 {
		s.obs.Event("manager", "data-loss", tid, fmt.Sprintf("%d chunks with no live copy", len(lost)))
	}
	s.mm.underRepl.Set(int64(s.mgr.UnderReplicatedCount()))
	return done, failed, lost
}

// remapLocked serves OpRemap as the two-phase protocol of DESIGN.md §9.
// Called with s.mu held; the lock is RELEASED around the payload copy —
// begin left the fresh chunk unpublished and the old one pinned, so other
// metadata ops (and other remaps' copies) proceed meanwhile and no
// benefactor round trip runs under s.mu.
func (s *ManagerServer) remapLocked(req *proto.ManagerReq, resp *proto.ManagerResp) {
	// Losing the commit race means another writer changed the file's chunk
	// mid-copy; begin again on the new state (typically: now unshared, write
	// in place). Each lost race is someone else's progress, so a few rounds
	// bound a pathological tie without starving anyone.
	const rounds = 3
	var err error
	for i := 0; i < rounds; i++ {
		var t manager.PendingRemap
		if t, err = s.mgr.RemapBegin(req.Name, req.ChunkIdx); err != nil {
			break
		}
		resp.OldRef = t.Old
		if !t.Shared() {
			resp.NewRefs = s.mgr.Replicas(t.Old.ID)
			break
		}
		addrOf := s.addrsOf(append([]proto.ChunkRef{t.Old}, t.Fresh...)...)
		s.mu.Unlock()
		errs := s.copyChunk(t.Old, t.Fresh, addrOf)
		s.mu.Lock()
		var copied []proto.ChunkRef
		for j, dst := range t.Fresh {
			if errs[j] == nil {
				copied = append(copied, dst)
				continue
			}
			s.dropBenConn(dst.Benefactor)
			s.obs.Event("manager", "remap-copy-failed", req.TraceID,
				fmt.Sprintf("copy %v -> %v: %v", t.Old, dst, errs[j]))
		}
		// The primary copy decides the remap (commit rolls back without
		// it); a failed replica copy only drops that replica, and repair
		// restores redundancy later. Commit checks for a lost race first,
		// and that outranks a copy error: a foreign old chunk cannot be
		// pinned, so the copy may have failed because a racing remap's
		// commit let the owning shard free it.
		var freed []proto.ChunkRef
		resp.NewRefs, freed, resp.ForeignFreed, err = s.mgr.RemapCommit(t, copied)
		if errs[0] != nil && !errors.Is(err, manager.ErrRemapRaced) {
			err = errs[0]
		}
		_ = s.deleteChunks(freed)
		if !errors.Is(err, manager.ErrRemapRaced) {
			break
		}
	}
	if err == nil {
		resp.NewRef = resp.NewRefs[0]
	}
	resp.Err = errStr(err)
}

// copyChunk copies src's payload onto every dst — the server-side COW and
// repair copy — and reports one error per dst. A lone destination on src's
// own benefactor is copied there without crossing the network; otherwise
// the payload is fetched once and written to all destinations at once. Runs
// without s.mu on the remap path, so addrOf (a benefactor's transport
// address) must not need the lock there.
func (s *ManagerServer) copyChunk(src proto.ChunkRef, dsts []proto.ChunkRef, addrOf func(int) string) []error {
	errs := make([]error, len(dsts))
	fail := func(err error) []error {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	from, err := s.benConn(src.Benefactor, addrOf(src.Benefactor))
	if err != nil {
		return fail(err)
	}
	if len(dsts) == 1 && dsts[0].Benefactor == src.Benefactor {
		_, errs[0] = from.call(proto.ChunkReq{Op: proto.OpCopyChunk, ID: dsts[0].ID, SrcID: src.ID})
		return errs
	}
	data, err := from.call(proto.ChunkReq{Op: proto.OpGetChunk, ID: src.ID})
	if err != nil {
		s.dropBenConn(src.Benefactor)
		return fail(err)
	}
	var wg sync.WaitGroup
	for i, dst := range dsts {
		wg.Add(1)
		go func(i int, dst proto.ChunkRef) {
			defer wg.Done()
			to, err := s.benConn(dst.Benefactor, addrOf(dst.Benefactor))
			if err == nil {
				_, err = to.call(proto.ChunkReq{Op: proto.OpPutChunk, ID: dst.ID, Data: data.Data})
			}
			errs[i] = err
		}(i, dst)
	}
	wg.Wait()
	s.arena.Put(data.Data)
	return errs
}

// BenefactorConfig tunes a BenefactorServer's observability.
type BenefactorConfig struct {
	// DebugAddr, when non-empty, serves the benefactor's observability
	// state over HTTP (/metrics, /healthz, /spans, /debug/pprof) on that
	// address. The address is announced to the manager at registration so
	// cluster tools (nvmctl top/trace) can discover it.
	DebugAddr string
	// Obs receives the benefactor's metrics and events. Nil gets a fresh
	// obs.New("benefactor-<id>"); obs.Disabled() silences instrumentation.
	Obs *obs.Obs
	// Monitor configures continuous self-monitoring on the server's Obs
	// (periodic sampling + alert rules). The zero value disables it.
	Monitor obs.MonitorConfig
	// Incidents configures the on-disk incident recorder (see
	// ManagerConfig.Incidents). The zero value disables it.
	Incidents obs.IncidentConfig
}

// benMetrics holds the benefactor server's registry handles.
type benMetrics struct {
	opLat                 map[proto.Op]*obs.Histogram
	readBytes, writeBytes *obs.Counter
}

var benefactorOps = []proto.Op{
	proto.OpGetChunk, proto.OpPutChunk, proto.OpPutPages,
	proto.OpDeleteChunk, proto.OpCopyChunk,
}

func newBenMetrics(o *obs.Obs) benMetrics {
	m := benMetrics{
		opLat:      make(map[proto.Op]*obs.Histogram, len(benefactorOps)),
		readBytes:  o.Reg.Counter("benefactor.read_bytes"),
		writeBytes: o.Reg.Counter("benefactor.write_bytes"),
	}
	for _, op := range benefactorOps {
		m.opLat[op] = o.Reg.Histogram(fmt.Sprintf("benefactor.op.%s.latency", op))
	}
	return m
}

// BenefactorServer serves one benefactor's chunks over TCP. Each accepted
// connection is handled on its own goroutine and benefactor.Store is
// internally synchronized, so requests arriving on a client's pooled
// connections pipeline instead of serializing behind one server lock.
type BenefactorServer struct {
	st *benefactor.Store
	l  net.Listener
	// stop terminates the heartbeat loop.
	stop              chan struct{}
	conns             *connSet
	hbOnce, closeOnce sync.Once
	// mcs are the manager-shard connections (one in the unsharded plane);
	// regCap is the per-shard capacity announced at registration (the
	// device's contribution divided across the shards, so their combined
	// reservations never exceed it). regNode carries the node ID for
	// re-registration after a fenced rejoin.
	mcs     []*ManagerClient
	regCap  int64
	regNode int

	// arena leases request payload buffers for the binary-framed loop (and
	// backs a FileBackend's pooled reads). privReads records whether the
	// store's GetChunk results are caller-owned, i.e. recyclable into the
	// arena once the response frame is on the wire.
	arena     *proto.Arena
	privReads bool

	obs *obs.Obs
	bm  benMetrics
	dbg *obs.DebugServer
}

// NewBenefactorServer starts a benefactor on addr, registers it with the
// manager, and begins heartbeating, with default observability (private
// registry, no debug endpoint).
func NewBenefactorServer(addr, managerAddr string, id, node int, capacity, chunkSize int64, backend benefactor.Backend, beat time.Duration) (*BenefactorServer, error) {
	return NewBenefactorServerWith(addr, managerAddr, id, node, capacity, chunkSize, backend, beat, BenefactorConfig{})
}

// NewBenefactorServerWith starts a benefactor with explicit observability
// settings. A *FileBackend backend is wired into the same registry
// (device-level ssd.* metrics) automatically.
func NewBenefactorServerWith(addr, managerAddr string, id, node int, capacity, chunkSize int64, backend benefactor.Backend, beat time.Duration, cfg BenefactorConfig) (*BenefactorServer, error) {
	if cfg.Obs == nil {
		cfg.Obs = obs.New(fmt.Sprintf("benefactor-%d", id))
	}
	arena := proto.NewArena(chunkSize)
	if fb, ok := backend.(*FileBackend); ok {
		fb.SetObs(cfg.Obs)
		fb.SetArena(arena)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &BenefactorServer{
		st:    benefactor.New(id, node, capacity, chunkSize, backend),
		l:     l,
		stop:  make(chan struct{}),
		conns: newConnSet(),
		arena: arena,
		obs:   cfg.Obs,
		bm:    newBenMetrics(cfg.Obs),
	}
	s.privReads = s.st.PrivateReads()
	s.st.SetObs(cfg.Obs)
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
			return nil, fmt.Errorf("rpc: benefactor debug server: %w", err)
		}
		s.dbg = dbg
	}
	// The manager never reuses chunk IDs, so a deleted chunk referenced
	// again can only be a stale client map: fail it so the client retries
	// with fresh metadata.
	s.st.SetStrictDelete(true)

	// managerAddr may name every shard of the metadata plane
	// ("host:port,host:port,..."). The benefactor registers with all of
	// them: each shard places chunks independently, so the contributed
	// capacity is divided evenly — handing every shard the full device
	// would overcommit it N times.
	addrs := shardmap.SplitAddrs(managerAddr)
	if len(addrs) == 0 {
		s.dbg.Close()
		l.Close()
		return nil, fmt.Errorf("rpc: benefactor %d has no manager address", id)
	}
	s.regCap = capacity / int64(len(addrs))
	s.regNode = node
	fail := func(err error) (*BenefactorServer, error) {
		for _, mc := range s.mcs {
			mc.Close()
		}
		s.dbg.Close()
		l.Close()
		return nil, err
	}
	for _, a := range addrs {
		mc, err := DialManager(a)
		if err != nil {
			return fail(err)
		}
		s.mcs = append(s.mcs, mc)
	}
	// Register with every shard BEFORE accepting connections: a rejoining
	// benefactor may be told to fence stale pre-partition copies
	// (FenceChunks), and those payloads must be gone before any client
	// with a stale chunk map can read them (§16).
	for _, mc := range s.mcs {
		if err := s.registerWith(mc); err != nil {
			return fail(err)
		}
	}
	go serve(l, s.conns, s.serveConn)

	if beat > 0 {
		for _, mc := range s.mcs {
			go s.heartbeatLoop(mc, beat)
		}
	}
	s.obs.StartMonitor(cfg.Monitor)
	return s, nil
}

// registerWith announces the benefactor to one manager shard and deletes
// any chunk copies the shard fenced (stale pre-partition claims written
// around during the benefactor's absence). DeleteChunk tombstones the IDs,
// so even a racing stale read cannot resurrect the old payload.
func (s *BenefactorServer) registerWith(mc *ManagerClient) error {
	resp, err := mc.call(proto.ManagerReq{
		Op: proto.OpRegister, BenID: s.st.ID(), BenNode: s.regNode,
		BenAddr: s.l.Addr().String(), BenDebugAddr: s.dbg.Addr(),
		Capacity: s.regCap,
	})
	if err != nil {
		return err
	}
	for _, ref := range resp.FenceChunks {
		if derr := s.st.DeleteChunk(ref.ID); derr != nil {
			return fmt.Errorf("rpc: benefactor %d fencing chunk %d: %w", s.st.ID(), ref.ID, derr)
		}
	}
	if len(resp.FenceChunks) > 0 {
		s.obs.Event("benefactor", "fenced", "",
			fmt.Sprintf("deleted %d stale copies on rejoin", len(resp.FenceChunks)))
	}
	return nil
}

// heartbeatLoop beats one manager shard. A beat rejected with
// ErrBenefactorDead means the shard declared this benefactor dead while it
// was partitioned; heartbeats cannot revive it (§16), so the loop
// re-registers — which fences whatever stale copies the shard wrote
// around — and resumes beating.
func (s *BenefactorServer) heartbeatLoop(mc *ManagerClient, beat time.Duration) {
	t := time.NewTicker(beat)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			err := mc.Heartbeat(s.st.ID(), s.st.Stats().BytesWritten)
			if errors.Is(err, proto.ErrBenefactorDead) {
				if rerr := s.registerWith(mc); rerr != nil {
					s.obs.Event("benefactor", "rejoin-failed", "", rerr.Error())
				}
			}
		}
	}
}

// Addr returns the listening address.
func (s *BenefactorServer) Addr() string { return s.l.Addr().String() }

// DebugAddr returns the observability endpoint's address ("" when the
// server runs without one).
func (s *BenefactorServer) DebugAddr() string { return s.dbg.Addr() }

// Obs exposes the server's observability state (tests and embedders).
func (s *BenefactorServer) Obs() *obs.Obs { return s.obs }

// Close stops the server and its heartbeats. Close is idempotent (fault
// tests kill benefactors mid-test and rig cleanup closes again).
func (s *BenefactorServer) Close() error {
	s.StopHeartbeat()
	var err error
	s.closeOnce.Do(func() {
		s.obs.StopMonitor()
		s.obs.Incidents().Wait() // finish any in-flight bundle capture
		err = s.l.Close()
		s.dbg.Close()
		s.conns.closeAll()
		for _, mc := range s.mcs {
			mc.Close()
		}
	})
	return err
}

// StopHeartbeat silences the benefactor's heartbeats while it keeps
// serving chunks — to the manager this looks like a failed node, which is
// exactly what heartbeat-expiry tests need to stage.
func (s *BenefactorServer) StopHeartbeat() {
	s.hbOnce.Do(func() { close(s.stop) })
}

// Store exposes the underlying chunk store (for stats).
func (s *BenefactorServer) Store() *benefactor.Store { return s.st }

// spanUnder begins a child span of parent; a nil parent (untraced request
// or disabled obs) yields a nil no-op span.
func (s *BenefactorServer) spanUnder(parent *obs.ActiveSpan, name string) *obs.ActiveSpan {
	if parent == nil {
		return nil
	}
	return s.obs.StartSpan(parent.Trace(), parent.ID(), name)
}

// maxPayloadFor is the frame payload bound for one chunk geometry: a frame
// declaring more than 2× the chunk size is malformed and dropped without
// reading (the largest legitimate payload is exactly one chunk).
func maxPayloadFor(chunkSize int64) int { return int(2 * chunkSize) }

// serveConn runs one benefactor connection: the server half of the NVM1
// handshake, then the frame loop. The client's first byte must be
// proto.Preamble, which is echoed back as the accept. Any other first byte
// is not a chunk client; it is read alone, before anything else is
// buffered or decoded, and the connection is dropped.
func (s *BenefactorServer) serveConn(conn net.Conn) {
	var first [1]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		return
	}
	if first[0] != proto.Preamble {
		s.badFrame(conn, fmt.Errorf("%w: first byte 0x%02x is not the NVM1 preamble", proto.ErrBadFrame, first[0]))
		return
	}
	if _, err := conn.Write(first[:]); err != nil {
		return
	}
	s.serveBinary(conn, bufio.NewReaderSize(conn, 64<<10))
}

// badFrame logs a malformed frame and tells the caller to drop the
// connection: once framing is untrustworthy nothing after it can be
// parsed safely.
func (s *BenefactorServer) badFrame(conn net.Conn, err error) {
	s.obs.Log.Warn("dropping connection on malformed frame",
		"peer", conn.RemoteAddr().String(), "err", err.Error())
	s.obs.Event("benefactor", "bad-frame", "", fmt.Sprintf("peer=%s err=%v", conn.RemoteAddr(), err))
}

// serveBinary runs one connection's NVM1 frame loop. Request payloads are
// leased from the server arena and returned right after dispatch; response
// payloads stream from the store's buffer via scatter-gather and, when the
// store hands out private buffers (FileBackend), recycle into the arena
// once written.
func (s *BenefactorServer) serveBinary(conn net.Conn, br *bufio.Reader) {
	var (
		freq, fresp proto.Frame
		scratch     []byte
		wbufs       = make(net.Buffers, 0, 2)
		pageData    [][]byte
		maxPayload  = maxPayloadFor(s.st.ChunkSize())
	)
	for {
		payload, err := proto.ReadFrame(br, &freq, s.arena, maxPayload)
		if err != nil {
			if errors.Is(err, proto.ErrBadFrame) {
				s.badFrame(conn, err)
			}
			return
		}
		if freq.Resp {
			s.arena.Put(payload)
			s.badFrame(conn, fmt.Errorf("%w: response frame where request expected", proto.ErrBadFrame))
			return
		}
		req := proto.ChunkReq{
			Op: freq.Op.Op(), TraceID: freq.Trace, ParentSpanID: freq.Parent,
			VarName: freq.Var, ID: freq.ID,
		}
		switch freq.Op {
		case proto.FramePut:
			req.Data = payload
		case proto.FrameCopy:
			req.SrcID = proto.ChunkID(freq.Aux)
		case proto.FramePutPages:
			req.PageOffs = freq.PageOffs
			pageData = pageData[:0]
			rest := payload
			for _, ln := range freq.PageLens {
				pageData = append(pageData, rest[:ln:ln])
				rest = rest[ln:]
			}
			req.PageData = pageData
		}
		resp := s.dispatch(&req)
		// The store has consumed (persisted or copied) the request payload.
		s.arena.Put(payload)

		fresp.Op, fresp.Resp = freq.Op, true
		fresp.ID, fresp.Aux = freq.ID, 0
		fresp.Trace, fresp.Parent, fresp.Var = "", "", ""
		fresp.Err = resp.Err
		fresp.PageOffs, fresp.PageLens = fresp.PageOffs[:0], fresp.PageLens[:0]
		fresp.PayloadLen = len(resp.Data)
		scratch = fresp.AppendTo(scratch[:0])
		wbufs = wbufs[:0]
		wbufs = append(wbufs, scratch)
		if len(resp.Data) > 0 {
			wbufs = append(wbufs, resp.Data)
		}
		wb := wbufs // WriteTo consumes its receiver; keep wbufs reusable
		_, werr := wb.WriteTo(conn)
		if s.privReads && resp.Data != nil {
			s.arena.Put(resp.Data)
		}
		if werr != nil {
			return
		}
	}
}

// dispatch executes one chunk data op against the store. Ownership:
// req.Data and req.PageData are only read during the call; resp.Data (get
// responses) follows the store's PrivateReads policy — serveBinary recycles
// it after writing when it is private.
func (s *BenefactorServer) dispatch(req *proto.ChunkReq) proto.ChunkResp {
	opStart := time.Now()
	// A span-traced request (it names a parent span) gets a benefactor-side
	// child span (and a nested ssd.* span around the backend call);
	// untraced ones record nothing.
	var sp *obs.ActiveSpan
	if req.ParentSpanID != "" {
		sp = s.obs.StartSpanAt(req.TraceID, req.ParentSpanID, "benefactor."+string(req.Op), opStart.UnixNano())
		sp.SetVar(req.VarName)
	}
	var resp proto.ChunkResp
	switch req.Op {
	case proto.OpGetChunk:
		ssd := s.spanUnder(sp, "ssd.read")
		d, err := s.st.GetChunk(req.ID)
		ssd.SetErr(err)
		ssd.AddBytes(int64(len(d)))
		ssd.End()
		resp.Data, resp.Err = d, errStr(err)
		sp.AddBytes(int64(len(d)))
		s.bm.readBytes.Add(int64(len(d)))
	case proto.OpPutChunk:
		ssd := s.spanUnder(sp, "ssd.write")
		err := s.st.PutChunk(req.ID, req.Data)
		ssd.SetErr(err)
		ssd.AddBytes(int64(len(req.Data)))
		ssd.End()
		resp.Err = errStr(err)
		sp.AddBytes(int64(len(req.Data)))
		s.bm.writeBytes.Add(int64(len(req.Data)))
	case proto.OpPutPages:
		var n int64
		for _, pg := range req.PageData {
			n += int64(len(pg))
		}
		ssd := s.spanUnder(sp, "ssd.write")
		err := s.st.PutPages(req.ID, req.PageOffs, req.PageData)
		ssd.SetErr(err)
		ssd.AddBytes(n)
		ssd.End()
		resp.Err = errStr(err)
		sp.AddBytes(n)
		s.bm.writeBytes.Add(n)
	case proto.OpDeleteChunk:
		resp.Err = errStr(s.st.DeleteChunk(req.ID))
	case proto.OpCopyChunk:
		ssd := s.spanUnder(sp, "ssd.copy")
		err := s.st.CopyChunk(req.ID, req.SrcID)
		ssd.SetErr(err)
		ssd.End()
		resp.Err = errStr(err)
	default:
		resp.Err = fmt.Sprintf("benefactor: unknown op %q", req.Op)
	}
	s.bm.opLat[req.Op].Observe(time.Since(opStart))
	sp.SetErr(wireErr(resp.Err))
	sp.End()
	return resp
}

// Timeouts for server-initiated benefactor calls (chunk deletion, COW
// copies, repair). Client-side timeouts come from Options.
const (
	serverDialTimeout = 5 * time.Second
	serverCallTimeout = 30 * time.Second
)

// ManagerClient is a client of one manager. Each gob stream is lock-step —
// one request in flight — so the client keeps up to DefaultPoolSize streams
// ("lanes"): a call takes the most recently used idle lane, or opens a new
// one only when every open lane is busy. A lone caller (a heartbeat loop,
// nvmctl) therefore holds exactly one socket, while a checkpoint's flush
// fan-out gets real concurrency. A broken lane is redialed transparently,
// and idempotent metadata RPCs are retried with backoff, so a manager
// restart or a transient network fault does not kill long-running clients
// (benefactor heartbeat loops in particular).
type ManagerClient struct {
	addr    string
	timeout time.Duration // per-RPC deadline; 0 = none
	retry   RetryPolicy
	// slots bounds the lanes in use; a caller beyond that waits here.
	slots chan struct{}

	mu     sync.Mutex
	idle   []*mgrLane // LIFO stack, so the warm lane is reused first
	closed bool
}

// mgrLane is one gob stream to the manager, owned by a single call at a
// time. A nil conn means "not dialed" (fresh, or dropped after a fault).
type mgrLane struct {
	conn net.Conn
	dec  *gob.Decoder
	enc  *gob.Encoder
}

// DialManager connects to a manager server with no per-RPC deadline.
func DialManager(addr string) (*ManagerClient, error) { return DialManagerTimeout(addr, 0) }

// DialManagerTimeout connects to a manager server; timeout bounds each
// metadata RPC round trip (0 disables the deadline).
func DialManagerTimeout(addr string, timeout time.Duration) (*ManagerClient, error) {
	c := &ManagerClient{
		addr: addr, timeout: timeout, retry: RetryPolicy{}.withDefaults(),
		slots: make(chan struct{}, DefaultPoolSize),
	}
	ln := &mgrLane{}
	if err := ln.dial(addr); err != nil {
		return nil, err
	}
	c.idle = append(c.idle, ln)
	return c, nil
}

// Close closes every idle lane; a lane a call still holds is closed when
// that call returns it.
func (c *ManagerClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	var err error
	for _, ln := range c.idle {
		if ln.conn != nil {
			err = ln.conn.Close()
		}
	}
	c.idle = nil
	return err
}

func (c *ManagerClient) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// takeLane returns the most recently released idle lane, or a new undialed
// one when all open lanes are busy. The caller holds a slot.
func (c *ManagerClient) takeLane() *mgrLane {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.idle); n > 0 {
		ln := c.idle[n-1]
		c.idle = c.idle[:n-1]
		return ln
	}
	return &mgrLane{}
}

func (c *ManagerClient) putLane(ln *mgrLane) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		ln.drop()
		return
	}
	c.idle = append(c.idle, ln)
}

func (ln *mgrLane) dial(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, serverDialTimeout)
	if err != nil {
		return err
	}
	ln.conn, ln.dec, ln.enc = conn, gob.NewDecoder(conn), gob.NewEncoder(conn)
	return nil
}

func (ln *mgrLane) drop() {
	if ln.conn != nil {
		ln.conn.Close()
		ln.conn = nil
	}
}

// retryableOp reports whether a manager RPC may be reissued after a
// transport failure. Ops with create-once semantics (Create, Link, Derive,
// Remap, Delete) are excluded: the lost response may have committed, and a
// blind retry would turn that success into a spurious error.
func retryableOp(op proto.Op) bool {
	switch op {
	case proto.OpRegister, proto.OpBeat, proto.OpLookup, proto.OpStatus,
		proto.OpSetTTL, proto.OpExpire, proto.OpRepair, proto.OpMarkDead,
		proto.OpExportRange:
		// ExportRange is read-only. RetainRefs/LinkRefs/ReleaseRefs are
		// NOT retryable: a lost response may have committed the refcount
		// change, and a blind replay would double-count a hold.
		return true
	}
	return false
}

func (c *ManagerClient) call(req proto.ManagerReq) (proto.ManagerResp, error) {
	c.slots <- struct{}{}
	defer func() { <-c.slots }()
	ln := c.takeLane()
	defer c.putLane(ln)
	var resp proto.ManagerResp
	attempts := c.retry.MaxAttempts
	if !retryableOp(req.Op) {
		attempts = 1
	}
	var last error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			time.Sleep(c.retry.backoff(attempt - 1))
		}
		if c.isClosed() {
			return resp, net.ErrClosed
		}
		if ln.conn == nil {
			if err := ln.dial(c.addr); err != nil {
				last = transient(err)
				continue
			}
		}
		if c.timeout > 0 {
			_ = ln.conn.SetDeadline(time.Now().Add(c.timeout))
		}
		if err := ln.enc.Encode(&req); err != nil {
			ln.drop()
			last = transient(err)
			continue
		}
		if err := ln.dec.Decode(&resp); err != nil {
			ln.drop()
			last = transient(err)
			continue
		}
		if c.timeout > 0 {
			_ = ln.conn.SetDeadline(time.Time{})
		}
		return resp, wireErr(resp.Err)
	}
	return resp, last
}

// Register announces a benefactor to the manager.
func (c *ManagerClient) Register(id, node int, addr string, capacity int64) error {
	_, err := c.call(proto.ManagerReq{Op: proto.OpRegister, BenID: id, BenNode: node, BenAddr: addr, Capacity: capacity})
	return err
}

// Heartbeat refreshes a benefactor's liveness.
func (c *ManagerClient) Heartbeat(id int, writeVolume int64) error {
	_, err := c.call(proto.ManagerReq{Op: proto.OpBeat, BenID: id, WriteVolume: writeVolume})
	return err
}

// Create reserves a striped file.
func (c *ManagerClient) Create(name string, size int64) (proto.FileInfo, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpCreate, Name: name, Size: size})
	return resp.File, err
}

// Lookup fetches a file's chunk map.
func (c *ManagerClient) Lookup(name string) (proto.FileInfo, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpLookup, Name: name})
	return resp.File, err
}

// Delete removes a file (and its unshared chunks, benefactor-side).
func (c *ManagerClient) Delete(name string) error {
	_, err := c.call(proto.ManagerReq{Op: proto.OpDelete, Name: name})
	return err
}

// Link appends part files' chunks to dst (zero-copy checkpoint merge).
func (c *ManagerClient) Link(dst string, parts []string) (proto.FileInfo, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpLink, Name: dst, Parts: parts})
	return resp.File, err
}

// Remap performs the copy-on-write remap of one chunk.
func (c *ManagerClient) Remap(name string, chunkIdx int) (proto.ChunkRef, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpRemap, Name: name, ChunkIdx: chunkIdx})
	return resp.NewRef, err
}

// Derive creates a file sharing a chunk sub-range of src (checkpoint
// restore without data movement).
func (c *ManagerClient) Derive(name, src string, fromChunk, nChunks int, size int64) (proto.FileInfo, error) {
	resp, err := c.call(proto.ManagerReq{
		Op: proto.OpDerive, Name: name, Src: src,
		FromChunk: fromChunk, NChunks: nChunks, Size: size,
	})
	return resp.File, err
}

// SetTTL assigns a lifetime deadline to a file, measured from the
// manager's start.
func (c *ManagerClient) SetTTL(name string, expiresAt time.Duration) error {
	_, err := c.call(proto.ManagerReq{Op: proto.OpSetTTL, Name: name, ExpiresAtNanos: int64(expiresAt)})
	return err
}

// Expire reclaims every file whose lifetime has passed and returns their
// names.
func (c *ManagerClient) Expire() ([]string, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpExpire})
	return resp.Expired, err
}

// Status returns the benefactor table.
func (c *ManagerClient) Status() ([]proto.BenefactorInfo, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpStatus})
	return resp.Bens, err
}

// StatusDetail returns the full status envelope: benefactor table (with
// heartbeat ages and debug endpoints), chunk geometry, under-replication
// backlog, and the manager's own debug endpoint.
func (c *ManagerClient) StatusDetail() (proto.ManagerResp, error) {
	return c.call(proto.ManagerReq{Op: proto.OpStatus})
}

// RepairResult summarizes one repair pass.
type RepairResult struct {
	Repaired int // replica copies restored
	Failed   int // copy operations that failed
	Lost     []proto.ChunkID
	// UnderReplicated is the backlog remaining after the pass.
	UnderReplicated int
}

// Repair re-replicates under-replicated chunks onto live benefactors and
// reports chunks with no surviving copy.
func (c *ManagerClient) Repair() (RepairResult, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpRepair})
	if err != nil {
		return RepairResult{}, err
	}
	r := RepairResult{Repaired: resp.Repaired, Failed: resp.RepairFailed, Lost: resp.Lost}
	if sr, serr := c.call(proto.ManagerReq{Op: proto.OpStatus}); serr == nil {
		r.UnderReplicated = sr.UnderReplicated
	}
	return r, nil
}

// MarkDead forcibly declares a benefactor dead ahead of heartbeat expiry
// (fault injection and operator intervention).
func (c *ManagerClient) MarkDead(benID int) error {
	_, err := c.call(proto.ManagerReq{Op: proto.OpMarkDead, BenID: benID})
	return err
}

// UnderReplicated returns the number of chunks currently holding fewer live
// copies than the store's replication factor.
func (c *ManagerClient) UnderReplicated() (int, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpStatus})
	return resp.UnderReplicated, err
}
