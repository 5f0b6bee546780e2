package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nvmalloc"
	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/core"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/store"
)

// The benchmark traces from outside the program, at three boundaries:
//
//	T0  around each facade call a rank makes (root spans)
//	S1  between fusecache.ChunkCache and rpc.StoreClient (a store.Client shim)
//	B   around each benefactor's Backend (a benefactor.Backend shim)
//
// A rank passes its T0 span as the base store.Ctx of the call. The base
// survives store.WithSpan and comes back through store.BaseCtx, so the S1
// shim knows which root caused it. B spans sit behind a TCP connection and
// cannot carry a parent; analyse() joins them to S1 spans by chunk ID and
// time.

// s1Kind names a store.Client method.
type s1Kind uint8

const (
	s1GetChunk s1Kind = iota
	s1PutChunk
	s1PutPages
	s1Create
	s1Lookup
	s1Delete
	s1Link
	s1Derive
	s1Remap
	s1SetTTL
	s1Status
	nS1Kinds
)

var s1Names = [nS1Kinds]string{
	"get_chunk", "put_chunk", "put_pages",
	"create", "lookup", "delete", "link", "derive", "remap", "set_ttl", "status",
}

func (k s1Kind) data() bool { return k <= s1PutPages }

// bKind names a benefactor.Backend method.
type bKind uint8

const (
	bGet bKind = iota
	bPut
	bDelete
	bHas
	nBKinds
)

var bNames = [nBKinds]string{"get", "put", "delete", "has"}

// t0span is a root span. Ranks keep theirs in rank-local slices, so the
// hot loop of hot-page records one without a lock or an allocation.
type t0span struct {
	start, end int64 // ns since the tracer's epoch
	id         int32
	kind       opKind
}

// span is an S1 or B span.
type span struct {
	id, parent int32 // parent: the T0 span for S1; resolved by analyse() for B
	start, end int64
	chunk      int64 // chunk ID (S1 data ops and B), else 0
	kind       uint8 // s1Kind or bKind
	b          bool
	ben        int8
}

type tracer struct {
	epoch time.Time
	// on gates recording to the measured phase: set-up, warm-up and the
	// final verification are not part of any per-layer number.
	on     atomic.Bool
	nextID atomic.Int32

	mu    sync.Mutex
	spans []span

	ranks []*rankTrace
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	s.id = t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// rankTrace holds one rank's root spans. IDs are rank-local (base+index)
// so begin needs no shared counter; S1/B IDs stay below the first base.
type rankTrace struct {
	tr    *tracer
	base  int32
	spans []t0span
}

const rankIDBase = 1 << 26

func (t *tracer) rank(expectOps int) *rankTrace {
	rt := &rankTrace{tr: t, base: int32(len(t.ranks)+1) * rankIDBase, spans: make([]t0span, 0, expectOps)}
	t.ranks = append(t.ranks, rt)
	return rt
}

// begin opens a root span and returns it both as the span to end and as
// the store.Ctx to pass down. With tracing off (or rt nil) both are nil,
// so an untraced call passes exactly the nil ctx a user passes.
func (rt *rankTrace) begin(k opKind) (store.Ctx, *t0span) {
	if rt == nil || !rt.tr.on.Load() {
		return nil, nil
	}
	rt.spans = append(rt.spans, t0span{id: rt.base + int32(len(rt.spans)), kind: k, start: rt.tr.now()})
	sp := &rt.spans[len(rt.spans)-1]
	return sp, sp
}

func (rt *rankTrace) end(sp *t0span) {
	if sp != nil {
		sp.end = rt.tr.now()
	}
}

// s1Shim is the boundary-S1 timing shim: a store.Client that forwards to
// the real client and records a span per call. It forwards
// store.BufferLender too — without that ChunkCache would silently fall
// back from buffer adoption to copy-on-fetch and the trace would measure a
// different program.
type s1Shim struct {
	inner  store.Client
	lender store.BufferLender // nil when inner lends nothing
	tr     *tracer
}

// s1SpillShim adds store.ChunkSpiller. It is a separate type because
// ChunkCache discovers spilling by type assertion: a shim that always had
// the method would switch spilling on over a client that has none.
type s1SpillShim struct {
	*s1Shim
	spiller store.ChunkSpiller
}

func (s s1SpillShim) SpillChunk(ctx store.Ctx, refs []proto.ChunkRef, data []byte) {
	s.spiller.SpillChunk(ctx, refs, data)
}

func newS1Shim(inner store.Client, tr *tracer) store.Client {
	s := &s1Shim{inner: inner, tr: tr}
	s.lender, _ = inner.(store.BufferLender)
	if sp, ok := inner.(store.ChunkSpiller); ok {
		return s1SpillShim{s, sp}
	}
	return s
}

func (s *s1Shim) PrivateChunks() bool { return s.lender != nil && s.lender.PrivateChunks() }

func (s *s1Shim) ReleaseChunk(buf []byte) {
	if s.lender != nil {
		s.lender.ReleaseChunk(buf)
	}
}

// call times fn as an S1 span caused by the root span riding ctx.
func (s *s1Shim) call(ctx store.Ctx, k s1Kind, refs []proto.ChunkRef, fn func()) {
	if !s.tr.on.Load() {
		fn()
		return
	}
	sp := span{kind: uint8(k), ben: -1, start: s.tr.now()}
	if root, ok := store.BaseCtx(ctx).(*t0span); ok && root != nil {
		sp.parent = root.id
	}
	if len(refs) > 0 {
		sp.chunk = int64(refs[0].ID)
	}
	fn()
	sp.end = s.tr.now()
	s.tr.record(sp)
}

func (s *s1Shim) Node() int        { return s.inner.Node() }
func (s *s1Shim) ChunkSize() int64 { return s.inner.ChunkSize() }

func (s *s1Shim) Create(ctx store.Ctx, name string, size int64) (fi proto.FileInfo, err error) {
	s.call(ctx, s1Create, nil, func() { fi, err = s.inner.Create(ctx, name, size) })
	return
}

func (s *s1Shim) Lookup(ctx store.Ctx, name string) (fi proto.FileInfo, err error) {
	s.call(ctx, s1Lookup, nil, func() { fi, err = s.inner.Lookup(ctx, name) })
	return
}

func (s *s1Shim) Delete(ctx store.Ctx, name string) (err error) {
	s.call(ctx, s1Delete, nil, func() { err = s.inner.Delete(ctx, name) })
	return
}

func (s *s1Shim) Link(ctx store.Ctx, dst string, parts []string) (fi proto.FileInfo, err error) {
	s.call(ctx, s1Link, nil, func() { fi, err = s.inner.Link(ctx, dst, parts) })
	return
}

func (s *s1Shim) Derive(ctx store.Ctx, name, src string, fromChunk, nChunks int, size int64) (fi proto.FileInfo, err error) {
	s.call(ctx, s1Derive, nil, func() { fi, err = s.inner.Derive(ctx, name, src, fromChunk, nChunks, size) })
	return
}

func (s *s1Shim) Remap(ctx store.Ctx, name string, chunkIdx int) (refs []proto.ChunkRef, err error) {
	s.call(ctx, s1Remap, nil, func() { refs, err = s.inner.Remap(ctx, name, chunkIdx) })
	return
}

func (s *s1Shim) SetTTL(ctx store.Ctx, name string, ttl time.Duration) (err error) {
	s.call(ctx, s1SetTTL, nil, func() { err = s.inner.SetTTL(ctx, name, ttl) })
	return
}

func (s *s1Shim) GetChunk(ctx store.Ctx, refs []proto.ChunkRef) (data []byte, err error) {
	s.call(ctx, s1GetChunk, refs, func() { data, err = s.inner.GetChunk(ctx, refs) })
	return
}

func (s *s1Shim) PutChunk(ctx store.Ctx, refs []proto.ChunkRef, data []byte) (err error) {
	s.call(ctx, s1PutChunk, refs, func() { err = s.inner.PutChunk(ctx, refs, data) })
	return
}

func (s *s1Shim) PutPages(ctx store.Ctx, refs []proto.ChunkRef, pageOffs []int64, pages [][]byte) (err error) {
	s.call(ctx, s1PutPages, refs, func() { err = s.inner.PutPages(ctx, refs, pageOffs, pages) })
	return
}

func (s *s1Shim) Status(ctx store.Ctx) (bi []proto.BenefactorInfo, err error) {
	s.call(ctx, s1Status, nil, func() { bi, err = s.inner.Status(ctx) })
	return
}

// bShim is the boundary-B timing shim around one benefactor's backend. It
// forwards benefactor.BufferPolicy exactly as benefactor.Delayed does.
type bShim struct {
	inner benefactor.Backend
	tr    *tracer
	ben   int8
}

func (b bShim) timed(k bKind, id proto.ChunkID, fn func()) {
	if !b.tr.on.Load() {
		fn()
		return
	}
	sp := span{b: true, kind: uint8(k), ben: b.ben, chunk: int64(id), start: b.tr.now()}
	fn()
	sp.end = b.tr.now()
	b.tr.record(sp)
}

func (b bShim) Put(id proto.ChunkID, data []byte) (err error) {
	b.timed(bPut, id, func() { err = b.inner.Put(id, data) })
	return
}

func (b bShim) Get(id proto.ChunkID) (data []byte, err error) {
	b.timed(bGet, id, func() { data, err = b.inner.Get(id) })
	return
}

func (b bShim) Delete(id proto.ChunkID) (err error) {
	b.timed(bDelete, id, func() { err = b.inner.Delete(id) })
	return
}

func (b bShim) Has(id proto.ChunkID) (ok bool) {
	b.timed(bHas, id, func() { ok = b.inner.Has(id) })
	return
}

func (b bShim) RetainsPut() bool {
	if bp, ok := b.inner.(benefactor.BufferPolicy); ok {
		return bp.RetainsPut()
	}
	return true
}

func (b bShim) PrivateGet() bool {
	if bp, ok := b.inner.(benefactor.BufferPolicy); ok {
		return bp.PrivateGet()
	}
	return false
}

// tracedEnv is store.GoEnv, except that a spawned task keeps its parent's
// base ctx. GoEnv hands tasks a nil ctx, which would orphan the S1 spans of
// read-ahead and of parallel flushers. Only the base is kept — span info is
// dropped exactly as GoEnv drops it.
type tracedEnv struct{ *store.GoEnv }

func (e tracedEnv) Go(ctx store.Ctx, name string, fn func(store.Ctx)) {
	base := store.BaseCtx(ctx)
	e.GoEnv.Go(ctx, name, func(store.Ctx) { fn(base) })
}

func (e tracedEnv) NewGroup() store.Group { return tracedGroup{e.GoEnv.NewGroup()} }

type tracedGroup struct{ store.Group }

func (g tracedGroup) Go(ctx store.Ctx, name string, fn func(store.Ctx)) {
	base := store.BaseCtx(ctx)
	g.Group.Go(ctx, name, func(store.Ctx) { fn(base) })
}

// connectTraced mirrors the body of nvmalloc.Connect line for line, with
// the S1 shim between the chunk cache and the wire and tracedEnv in place
// of GoEnv. TestMirrorFidelity fails if the two drift apart. The file tier
// (ConnectConfig.CacheDir) is not part of geometry g2s3b-r2.
func connectTraced(managerAddr string, cfg nvmalloc.ConnectConfig, tr *tracer) (*nvmalloc.Client, error) {
	if cfg.CacheDir != "" {
		return nil, fmt.Errorf("connectTraced: the file tier is not mirrored")
	}
	st, err := rpc.OpenWith(managerAddr, rpc.Options{
		PoolSize:    cfg.PoolSize,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.CacheBytes < st.ChunkSize() {
		cfg.CacheBytes = st.ChunkSize()
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.PageCacheBytes == 0 {
		cfg.PageCacheBytes = 8 << 20
	}
	switch {
	case cfg.ReadAheadChunks == 0:
		cfg.ReadAheadChunks = 2
	case cfg.ReadAheadChunks < 0:
		cfg.ReadAheadChunks = 0
	}
	if st.ChunkSize()%cfg.PageSize != 0 {
		st.Close()
		return nil, fmt.Errorf("nvmalloc: page size %d does not divide chunk size %d", cfg.PageSize, st.ChunkSize())
	}
	env := tracedEnv{store.NewGoEnv()}
	cl := newS1Shim(rpc.NewStoreClient(st, 0), tr)
	cc := fusecache.NewChunkCache(env, cl, fusecache.Config{
		ChunkSize:       st.ChunkSize(),
		PageSize:        cfg.PageSize,
		CacheBytes:      cfg.CacheBytes,
		ReadAheadChunks: cfg.ReadAheadChunks,
		WriteFullChunks: cfg.WriteFullChunks,
		Obs:             st.Obs(),
	})
	c := core.NewClient(cfg.Rank, nil, cc, cfg.PageCacheBytes)
	c.OnClose(func() error {
		ferr := cc.FlushAll(nil)
		env.Quiesce()
		cerr := st.Close()
		if ferr != nil {
			return ferr
		}
		return cerr
	})
	return c, nil
}

// storeOf digs the rpc.Store out of a client built by nvmalloc.Connect or
// by connectTraced, for its public Stats.
func storeOf(c *nvmalloc.Client) *rpc.Store {
	cl := c.ChunkCache().Store()
	switch s := cl.(type) {
	case *s1Shim:
		cl = s.inner
	case s1SpillShim:
		cl = s.inner
	}
	return cl.(*rpc.StoreClient).Store()
}

// Layers a root span's time is divided among. At each instant of a root
// span the time goes to the deepest layer with a span open under it:
// benefactor over rpc over the layer the root call itself runs in (cache
// for facade calls, sim for simulator calls). The parts of every root span
// therefore add up to its duration exactly.
const (
	layCache = iota
	layRPCMeta
	layRPCData
	layBen
	laySim
	nLayers
)

var layerNames = [nLayers]string{"cache", "rpc_meta", "rpc_data", "benefactor", "sim"}

func baseLayer(k opKind) int {
	if k == opFig3 || k == opTable7 {
		return laySim
	}
	return layCache
}

// spanStat summarises the spans of one S1 or B op.
type spanStat struct {
	durs []int64
	sum  int64
}

func (o *spanStat) add(d int64) { o.durs = append(o.durs, d); o.sum += d }
func (o *spanStat) count() int  { return len(o.durs) }
func (o *spanStat) meanUS() float64 {
	if len(o.durs) == 0 {
		return 0
	}
	return float64(o.sum) / float64(len(o.durs)) / 1e3
}
func (o *spanStat) pctUS(p float64) float64 { return float64(percentile(o.durs, p)) / 1e3 }

// analysis is everything the per-layer metrics need from a trace.
type analysis struct {
	rootNS    int64 // Σ root span durations
	layerNS   [nLayers]int64
	s1        [nS1Kinds]spanStat
	b         [nBKinds]spanStat
	benOps    [nBens]int64 // B data ops (get/put) per benefactor
	s1Orphans int          // S1 spans with no root: must be 0
	bOrphans  int          // B spans no S1 span accounts for (not an error: see below)
	nRoots    int
}

type ival struct {
	start, end int64
	lay        int
}

// analyse links B spans to S1 spans, S1 spans to roots, and sweeps every
// root span into layer times.
func (t *tracer) analyse() *analysis {
	a := &analysis{}
	var s1s, bs []*span
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.b {
			bs = append(bs, sp)
			a.b[sp.kind].add(sp.end - sp.start)
			if k := bKind(sp.kind); (k == bGet || k == bPut) && int(sp.ben) < nBens {
				a.benOps[sp.ben]++
			}
		} else {
			s1s = append(s1s, sp)
			a.s1[sp.kind].add(sp.end - sp.start)
		}
	}
	sort.Slice(s1s, func(i, j int) bool { return s1s[i].start < s1s[j].start })

	// Join B to S1. A data op's B spans carry its chunk ID and start
	// inside it. The manager's own benefactor calls (the copy of a
	// copy-on-write remap, the deletes after a refcount hits zero) happen
	// inside a metadata RPC that does not know the chunk: they go to the
	// latest metadata S1 span open at that time. What is left over are
	// calls the workload did not cause, which no root pays for.
	byChunk := map[int64][]*span{}
	var metas []*span
	for _, s := range s1s {
		if s1Kind(s.kind).data() {
			byChunk[s.chunk] = append(byChunk[s.chunk], s)
		} else {
			metas = append(metas, s)
		}
	}
	openAt := func(list []*span, at int64) *span {
		i := sort.Search(len(list), func(i int) bool { return list[i].start > at })
		for j := i - 1; j >= 0 && j >= i-64; j-- {
			if list[j].end >= at {
				return list[j]
			}
		}
		return nil
	}
	bOf := map[int32][]*span{}
	for _, b := range bs {
		p := openAt(byChunk[b.chunk], b.start)
		if p == nil {
			p = openAt(metas, b.start)
		}
		if p == nil {
			a.bOrphans++
			continue
		}
		b.parent = p.id
		bOf[p.id] = append(bOf[p.id], b)
	}
	s1Of := map[int32][]*span{}
	for _, s := range s1s {
		if s.parent == 0 {
			a.s1Orphans++
			continue
		}
		s1Of[s.parent] = append(s1Of[s.parent], s)
	}

	var ivs []ival
	for _, rt := range t.ranks {
		for i := range rt.spans {
			root := &rt.spans[i]
			dur := root.end - root.start
			a.nRoots++
			a.rootNS += dur
			kids := s1Of[root.id]
			if len(kids) == 0 {
				a.layerNS[baseLayer(root.kind)] += dur
				continue
			}
			// Children are clipped to the root: read-ahead may outlive
			// the call that started it, and that tail blocks nobody.
			ivs = ivs[:0]
			for _, s := range kids {
				lay := layRPCMeta
				if s1Kind(s.kind).data() {
					lay = layRPCData
				}
				s0, s1 := max(s.start, root.start), min(s.end, root.end)
				if s0 >= s1 {
					continue
				}
				ivs = append(ivs, ival{s0, s1, lay})
				for _, b := range bOf[s.id] {
					if b0, b1 := max(b.start, s0), min(b.end, s1); b0 < b1 {
						ivs = append(ivs, ival{b0, b1, layBen})
					}
				}
			}
			sweep(root.start, root.end, baseLayer(root.kind), ivs, &a.layerNS)
		}
	}
	return a
}

// sweep splits [start,end) among layers: each instant goes to the highest
// layer with an interval open, or to base when none is.
func sweep(start, end int64, base int, ivs []ival, out *[nLayers]int64) {
	type edge struct {
		at  int64
		lay int
		d   int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		edges = append(edges, edge{iv.start, iv.lay, 1}, edge{iv.end, iv.lay, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var open [nLayers]int
	at := start
	for _, e := range edges {
		if e.at > at {
			lay := base
			for l := nLayers - 1; l >= 0; l-- {
				if open[l] > 0 {
					lay = l
					break
				}
			}
			out[lay] += e.at - at
			at = e.at
		}
		open[e.lay] += e.d
	}
	out[base] += end - at
}

// maxSpansWritten caps the span list of a trace file; the summary above it
// always covers every span.
const maxSpansWritten = 50000

type fileSpan struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Chunk  int64  `json:"chunk,omitempty"`
	Ben    *int8  `json:"benefactor,omitempty"`
}

// writeFile writes the trace (after analyse, so B spans have parents) to
// dir/trace-<workload>.json.
func (t *tracer) writeFile(dir, workload string, seed uint64, a *analysis) (string, error) {
	var all []fileSpan
	for _, rt := range t.ranks {
		for _, s := range rt.spans {
			all = append(all, fileSpan{ID: s.id, Layer: "T0", Name: s.kind.String(), Start: s.start, End: s.end})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		fs := fileSpan{ID: s.id, Parent: s.parent, Start: s.start, End: s.end, Chunk: s.chunk}
		if s.b {
			ben := s.ben
			fs.Layer, fs.Name, fs.Ben = "B", bNames[s.kind], &ben
		} else {
			fs.Layer, fs.Name = "S1", s1Names[s.kind]
		}
		all = append(all, fs)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	total := len(all)
	if len(all) > maxSpansWritten {
		all = all[:maxSpansWritten]
	}
	layers := map[string]float64{}
	for l, ns := range a.layerNS {
		layers[layerNames[l]] = float64(ns) / 1e9
	}
	doc := map[string]any{
		"workload":       workload,
		"seed":           seed,
		"geometry":       geometry,
		"root_spans":     a.nRoots,
		"root_s":         float64(a.rootNS) / 1e9,
		"layer_self_s":   layers,
		"s1_orphans":     a.s1Orphans,
		"b_unattributed": a.bOrphans,
		"spans_total":    total,
		"spans_written":  len(all),
		"spans":          all,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
