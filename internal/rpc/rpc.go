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
		case proto.FrameDelete:
			req.MoreIDs = freq.MoreIDs
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
		// One frame may free several chunks (the manager batches a
		// transition's freed refs per benefactor): delete them all and
		// report the first failure.
		err := s.st.DeleteChunk(req.ID)
		for _, id := range req.MoreIDs {
			if derr := s.st.DeleteChunk(id); err == nil {
				err = derr
			}
		}
		resp.Err = errStr(err)
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
