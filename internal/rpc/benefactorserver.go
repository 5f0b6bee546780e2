package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/shardmap"
)

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
		mc, err := DialManager(a, 0)
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
		resp.Data, resp.Err = d, proto.ErrString(err)
		sp.AddBytes(int64(len(d)))
		s.bm.readBytes.Add(int64(len(d)))
	case proto.OpPutChunk:
		ssd := s.spanUnder(sp, "ssd.write")
		err := s.st.PutChunk(req.ID, req.Data)
		ssd.SetErr(err)
		ssd.AddBytes(int64(len(req.Data)))
		ssd.End()
		resp.Err = proto.ErrString(err)
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
		resp.Err = proto.ErrString(err)
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
		resp.Err = proto.ErrString(err)
	case proto.OpCopyChunk:
		ssd := s.spanUnder(sp, "ssd.copy")
		err := s.st.CopyChunk(req.ID, req.SrcID)
		ssd.SetErr(err)
		ssd.End()
		resp.Err = proto.ErrString(err)
	default:
		resp.Err = fmt.Sprintf("benefactor: unknown op %q", req.Op)
	}
	s.bm.opLat[req.Op].Observe(time.Since(opStart))
	sp.SetErr(proto.WireErr(resp.Err))
	sp.End()
	return resp
}
