// Package fusecache implements the client-side caching that bridges the
// granularity gap between byte-addressable memory accesses and the 256 KB
// chunks of the distributed block store (paper §III-D):
//
//   - ChunkCache is the per-node FUSE-layer cache: an LRU of chunks with
//     per-page dirty bitmaps. A write that covers whole pages of a missing
//     chunk installs them without fetching the rest (per-page validity).
//     On eviction only dirty pages travel to the benefactor (the paper's
//     write optimization, Table VII), and a
//     sequential run keeps a window of asynchronous read-ahead in flight
//     in front of the reader (readahead.go; the reason NVMalloc *beats*
//     direct SSD access on STREAM, Table III).
//   - PageCache (pagecache.go) is the per-process page-granularity layer
//     standing in for the kernel page cache above FUSE.
//
// The cache also carries the copy-on-write protocol for checkpointed
// variables: files "armed" for COW get their shared chunks remapped by the
// manager before the first post-checkpoint writeback (paper §III-E). The
// store's chunk sharing carries into RAM: a file derived from a checkpoint
// borrows the buffers of resident chunks it shares instead of fetching
// them (see entry.id), and a write to a borrowed buffer copies it first.
// The first write that changes a checkpointed chunk keeps the chunk's
// checkpointed bytes resident as a clean pre-image entry of the checkpoint
// file, behind every other entry in the LRU and only while the cache has a
// free slot (preserve), so that a restore of that checkpoint borrows those
// bytes too.
//
// The cache is transport neutral: it talks to the store through
// store.Client and to its execution substrate (locking, task spawning,
// blocking) through store.Env, so the same code serves the deterministic
// simulation (simstore.Env + simstore.Client) and the real TCP deployment
// (store.GoEnv + the rpc adapter). Internal methods assume the env lock is
// held and release it around every blocking operation — store RPCs, future
// waits, gate acquisition — exactly the discipline a wall-clock mutex
// needs; under the simulation the lock is a no-op and the discipline is
// free.
package fusecache

import (
	"container/list"
	"errors"
	"fmt"
	"sort"

	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/store"
)

// Config holds the cache geometry.
type Config struct {
	ChunkSize int64
	PageSize  int64
	// CacheBytes is the FUSE cache capacity (paper: 64 MB).
	CacheBytes int64
	// ReadAheadChunks is the starting depth of a confirmed sequential run's
	// read-ahead window (0 disables read-ahead). The window grows while the
	// run continues, up to a budget the cache derives from its gate width
	// and capacity (readahead.go).
	ReadAheadChunks int
	// WriteFullChunks disables the dirty-page write optimization: whole
	// chunks travel on every writeback, however few pages are dirty. This
	// is the "without optimization" baseline of Table VII.
	WriteFullChunks bool
	// FuseConcurrency is how many store requests this cache keeps in
	// flight. 0 means DefaultFuseConcurrency, sized for the TCP data path;
	// the simulated 2012 testbed's FUSE daemon served ~2 and says so in its
	// profile (sysprof.Profile.FuseConcurrency).
	FuseConcurrency int
	// Obs receives the cache's counters (fusecache.* on its registry).
	// Nil gets a fresh private obs.New("fusecache").
	Obs *obs.Obs
}

// DefaultFuseConcurrency is the store-request concurrency of a cache whose
// Config leaves FuseConcurrency zero: enough requests in flight to cover
// device latency across a handful of benefactors with pooled connections.
// The cache is the only byte path of a TCP client, so this is also how
// wide a TCP client fans chunk transfers out.
const DefaultFuseConcurrency = 8

// Chunks returns the cache capacity in chunks (at least 1).
func (c Config) Chunks() int {
	n := int(c.CacheBytes / c.ChunkSize)
	if n < 1 {
		n = 1
	}
	return n
}

// Stats are the cumulative traffic counters of one ChunkCache. The three
// levels of Table IV map to: application bytes (counted by core.Region),
// FUSE bytes (FuseRead/FuseWrite here), and SSD bytes (SSDRead/SSDWrite
// here).
type Stats struct {
	FuseReadBytes  int64 // bytes served to the page layer
	FuseWriteBytes int64 // bytes accepted from the page layer
	SSDReadBytes   int64 // chunk payloads fetched from benefactors
	SSDWriteBytes  int64 // payload bytes shipped to benefactors
	PrefetchBytes  int64 // subset of SSDReadBytes fetched by read-ahead
	PrefetchWasted int64 // subset of PrefetchBytes evicted or dropped untouched
	Hits           int64
	Misses         int64
	Waits          int64 // accesses that waited on an in-flight fetch/flush
	Evictions      int64
	DirtyEvictions int64
	Spills         int64 // clean evicted chunks handed to the file tier
	Remaps         int64 // copy-on-write remappings performed
	Flushes        int64
	MetaRetries    int64 // reads and writebacks retried after a stale chunk map
}

// counters are the cache's registry handles. They are atomic, so Stats()
// and ResetStats() are safe to call from outside the simulation engine
// while procs are running (the old plain-struct counters raced there).
type counters struct {
	fuseRead, fuseWrite         *obs.Counter
	ssdRead, ssdWrite, prefetch *obs.Counter
	prefetchWasted              *obs.Counter
	hits, misses, waits         *obs.Counter
	evictions, dirtyEvictions   *obs.Counter
	spills                      *obs.Counter
	remaps, flushes             *obs.Counter
	metaRetries                 *obs.Counter
}

func newCounters(o *obs.Obs) counters {
	r := o.Reg
	return counters{
		fuseRead:       r.Counter("fusecache.fuse_read_bytes"),
		fuseWrite:      r.Counter("fusecache.fuse_write_bytes"),
		ssdRead:        r.Counter("fusecache.ssd_read_bytes"),
		ssdWrite:       r.Counter("fusecache.ssd_write_bytes"),
		prefetch:       r.Counter("fusecache.prefetch_bytes"),
		prefetchWasted: r.Counter("fusecache.prefetch_wasted_bytes"),
		hits:           r.Counter("fusecache.hits"),
		misses:         r.Counter("fusecache.misses"),
		waits:          r.Counter("fusecache.waits"),
		evictions:      r.Counter("fusecache.evictions"),
		dirtyEvictions: r.Counter("fusecache.dirty_evictions"),
		spills:         r.Counter("fusecache.spills"),
		remaps:         r.Counter("fusecache.remaps"),
		flushes:        r.Counter("fusecache.flushes"),
		metaRetries:    r.Counter("fusecache.meta_retries"),
	}
}

type chunkKey struct {
	file string
	idx  int
}

// entry is one cached chunk.
type entry struct {
	key    chunkKey
	data   []byte
	dirty  []bool // per page
	nDirty int
	// valid is nil when the entry holds the whole chunk. A write miss that
	// covers whole pages installs the entry without fetching (acquire);
	// valid then marks the pages it holds and nValid counts them, until a
	// write completes the set or a fill fetches the rest. Dirty pages are
	// always valid.
	valid  []bool
	nValid int
	lru    *list.Element
	// fut is non-nil while the entry is loading, filling or flushing;
	// accessors must wait on it and retry.
	fut store.Future
	// prefetch marks a chunk read-ahead reserved that no access has touched
	// yet. The first touch clears it and moves the file's stream on
	// (readahead.go); an eviction or Drop that finds it still set counts the
	// chunk as wasted.
	prefetch bool
	// queued is set while the entry is reserved for a read-ahead task that
	// has not started loading it: Drop withdraws such an entry instead of
	// waiting for it.
	queued bool
	// id names the chunk whose payload the entry's bytes equal whenever the
	// entry is clean (0: none known). A load sets it to the ID it fetched, a
	// writeback to the ID it shipped to, a known-zero install to the file's
	// chunk, a pre-image to the ID of the bytes it keeps; never the file's
	// current map, which a remap moves ahead of the bytes. ChunkCache.byID
	// indexes one holder per ID.
	id proto.ChunkID
	// sh is non-nil once the entry's buffer has been lent or borrowed: the
	// holders share it, and sh.holders lists those still resident. A buffer
	// with two holders is read-only, and only its last holder releases it.
	sh *share
	// borrowed marks an entry whose buffer came from another entry rather
	// than the store: it cost no fetch, so read-ahead that leaves it
	// untouched wasted none.
	borrowed bool
	// pre marks a checkpoint pre-image no access has touched (preserve). It
	// sits behind every regular entry in the LRU, and making room drops it
	// without counting an eviction; the first touch makes it a regular
	// entry of the checkpoint file.
	pre bool
}

// share lists the resident entries holding one chunk buffer. While two or
// more hold it they are all clean and carry the same id: a write copies a
// shared buffer first.
type share struct{ holders []*entry }

// shared reports whether another resident entry holds e's buffer too.
func (e *entry) shared() bool { return e.sh != nil && len(e.sh.holders) > 1 }

// armed is what ArmCOW records for a file whose chunks a checkpoint shares:
// the checkpoint file, the index of the file's first chunk in it, and the
// chunk IDs the checkpoint holds from there on (0 once preserve used one).
type armed struct {
	ckpt  string
	start int
	ids   []proto.ChunkID
}

// ChunkCache is the per-node FUSE-layer chunk cache.
type ChunkCache struct {
	env   store.Env
	store store.Client
	cfg   Config
	// lender is non-nil when the store hands out caller-owned chunk buffers
	// (store.BufferLender with PrivateChunks, i.e. the TCP adapter's pooled
	// arena leases): fetch then adopts GetChunk results as entry data with
	// no copy, and eviction returns the buffers to the store's pool. A nil
	// lender keeps the copy-on-fetch path (simstore aliases its backing
	// memory).
	lender store.BufferLender
	// spiller is non-nil when the store stacks a local spill tier
	// (store.ChunkSpiller, i.e. filecache.Tier): clean evictions hand
	// their payload down so a later miss is served node-locally.
	spiller store.ChunkSpiller

	// All fields below are guarded by env's lock (a no-op under the
	// cooperative simulation, a mutex under the TCP deployment).
	entries map[chunkKey]*entry
	lru     *list.List // front = most recent
	// byID indexes resident entries by entry.id, so that a load of a chunk
	// some entry already holds can borrow its buffer (borrow). extra counts
	// the entries holding a buffer another entry holds too, once per extra
	// holder: capacity bounds the distinct buffers, len(entries) - extra.
	byID  map[proto.ChunkID]*entry
	extra int

	// meta caches file chunk maps fetched from the manager.
	meta map[string]*proto.FileInfo
	// cow marks files whose chunks may be shared with a checkpoint and
	// need remapping before writeback, with what preserve needs to keep the
	// checkpoint's bytes of a chunk the file changes.
	cow map[string]*armed
	// streams holds the sequential-run state of each file that has been
	// read through a miss; spec counts the read-ahead chunks issued that no
	// access has touched yet, in flight or resident, and specMax bounds it
	// (readahead.go).
	streams map[string]*stream
	spec    int
	specMax int
	// virgin marks chunks of freshly created files that have never been
	// written: posix_fallocate reserved them, so they are known-zero and a
	// miss can be satisfied without fetching (no read-modify-write for
	// initial population).
	virgin map[chunkKey]bool
	// gate bounds concurrent store requests from this node's FUSE daemon.
	gate store.Gate
	// spares are buffers of entries that left the cache, kept while the
	// cache has free slots for them (len(spares) + buffers() <= capacity) for
	// the next buffer it fills without a fetch: a run of write misses, a
	// checkpoint's DRAM dump or the copies its pre-images take then recycle
	// released buffers instead of allocating a chunk each.
	spares [][]byte

	s counters
}

// NewChunkCache builds the per-node cache on the given execution substrate
// and store backend.
func NewChunkCache(env store.Env, st store.Client, cfg Config) *ChunkCache {
	if cfg.ChunkSize != st.ChunkSize() {
		panic(fmt.Sprintf("fusecache: cache chunk size %d != store chunk size %d", cfg.ChunkSize, st.ChunkSize()))
	}
	if cfg.ChunkSize%cfg.PageSize != 0 {
		panic("fusecache: chunk size not a multiple of page size")
	}
	conc := cfg.FuseConcurrency
	if conc <= 0 {
		conc = DefaultFuseConcurrency
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New("fusecache")
	}
	return &ChunkCache{
		s:       newCounters(cfg.Obs),
		env:     env,
		store:   st,
		lender:  lenderOf(st),
		spiller: spillerOf(st),
		cfg:     cfg,
		entries: make(map[chunkKey]*entry),
		lru:     list.New(),
		byID:    make(map[proto.ChunkID]*entry),
		meta:    make(map[string]*proto.FileInfo),
		cow:     make(map[string]*armed),
		streams: make(map[string]*stream),
		specMax: specBudget(cfg, conc),
		virgin:  make(map[chunkKey]bool),
		gate:    env.NewGate("fuse-daemon", conc),
	}
}

// lenderOf returns st's buffer-lending interface when its GetChunk results
// are caller-owned (nil otherwise — the cache then copies on fetch).
func lenderOf(st store.Client) store.BufferLender {
	if bl, ok := st.(store.BufferLender); ok && bl.PrivateChunks() {
		return bl
	}
	return nil
}

// spillerOf returns st's spill hook when it stacks a local file tier.
func spillerOf(st store.Client) store.ChunkSpiller {
	if sp, ok := st.(store.ChunkSpiller); ok {
		return sp
	}
	return nil
}

// releaseEntry takes an entry's chunk buffer: it stays with the other
// holders if it is shared, becomes a spare while the cache has a free slot
// for it, and otherwise goes back to the lending store's pool (or to the
// garbage collector without a lender). The entry must already be off the
// cache maps.
func (cc *ChunkCache) releaseEntry(e *entry) {
	if cc.unshare(e) {
		e.data = nil
		return
	}
	switch {
	case e.data == nil:
		return
	case int64(len(e.data)) == cc.cfg.ChunkSize && len(cc.spares) < cc.cfg.Chunks()-cc.buffers():
		cc.spares = append(cc.spares, e.data)
	case cc.lender != nil:
		cc.lender.ReleaseChunk(e.data)
	}
	e.data = nil
}

// installBuffer returns a chunk buffer for an entry filled without a fetch:
// a spare if there is one, cleared when the entry must read as zeroes. A
// partly valid entry needs no clearing, because nothing reads or ships its
// invalid pages. Lock held.
func (cc *ChunkCache) installBuffer(zero bool) []byte {
	buf := cc.popSpare()
	if buf == nil {
		return make([]byte, cc.cfg.ChunkSize)
	}
	if zero {
		clear(buf)
	}
	return buf
}

// popSpare takes the newest spare off the list, or returns nil. Lock held.
func (cc *ChunkCache) popSpare() []byte {
	n := len(cc.spares)
	if n == 0 {
		return nil
	}
	buf := cc.spares[n-1]
	cc.spares[n-1] = nil
	cc.spares = cc.spares[:n-1]
	return buf
}

// buffers returns how many distinct chunk buffers the cache holds or has
// reserved a slot for: what its capacity bounds. Lock held.
func (cc *ChunkCache) buffers() int { return len(cc.entries) - cc.extra }

// index records that e's clean bytes equal chunk id's payload (0: no known
// chunk), taking over the index slot of id. Lock held.
func (cc *ChunkCache) index(e *entry, id proto.ChunkID) {
	cc.unindex(e)
	if e.id = id; id != 0 {
		cc.byID[id] = e
	}
}

// unindex drops e's index slot, if it holds one. Lock held.
func (cc *ChunkCache) unindex(e *entry) {
	if e.id != 0 && cc.byID[e.id] == e {
		delete(cc.byID, e.id)
	}
}

// lendable returns the resident entry whose buffer a load of refs can
// borrow instead of fetching — one whose clean bytes equal refs[0]'s
// payload, and that is whole, clean and settled — or nil. Lock held.
func (cc *ChunkCache) lendable(refs []proto.ChunkRef) *entry {
	h := cc.byID[refs[0].ID]
	if h == nil || h.fut != nil || h.nDirty > 0 || h.valid != nil {
		return nil
	}
	return h
}

// borrow makes a reserved entry a second holder of a lendable entry's
// buffer, reporting whether there was one. It needs no room: the holders
// share one buffer. Lock held; never blocks.
func (cc *ChunkCache) borrow(e *entry, refs []proto.ChunkRef) bool {
	h := cc.lendable(refs)
	if h == nil {
		return false
	}
	cc.lend(h, e)
	e.borrowed = true
	return true
}

// lend makes e one more holder of h's clean buffer. Lock held.
func (cc *ChunkCache) lend(h, e *entry) {
	if h.sh == nil {
		h.sh = &share{holders: []*entry{h}}
	}
	h.sh.holders = append(h.sh.holders, e)
	cc.extra++
	e.data, e.sh, e.id = h.data, h.sh, h.id
}

// own gives an entry that shares its buffer a private copy of it, before a
// write; the other holders keep the buffer, and one of them e's index slot.
// The caller has made room for one more buffer. Lock held.
func (cc *ChunkCache) own(e *entry) {
	buf := cc.installBuffer(false)
	copy(buf, e.data)
	cc.unshare(e)
	e.data = buf
}

// unshare detaches e from the holders of its buffer, reporting whether
// another entry still holds it. The index slot of e's id, if e has it,
// passes to a remaining holder: its clean bytes are the same. Lock held.
func (cc *ChunkCache) unshare(e *entry) bool {
	sh := e.sh
	if sh == nil {
		return false
	}
	e.sh = nil
	for i, h := range sh.holders {
		if h == e {
			sh.holders = append(sh.holders[:i], sh.holders[i+1:]...)
			break
		}
	}
	if len(sh.holders) == 0 {
		return false
	}
	cc.extra--
	if e.id != 0 && cc.byID[e.id] == e {
		cc.byID[e.id] = sh.holders[0]
	}
	return true
}

// preserve runs before the first write to a clean entry of an armed file.
// When the entry holds, whole and unshared, the bytes of the checkpoint's
// chunk at its index, and the cache has a free slot, it keeps those bytes
// as a clean entry of the checkpoint file: the pre-image takes the entry's
// buffer and index slot and goes behind every entry in the LRU, and the
// writer goes on with a copy. A restore of the checkpoint then borrows the
// chunk instead of fetching it. Since a pre-image only ever fills a free
// slot and is the first to go when room is made, the other entries stay
// resident exactly as long as they would without it. Lock held; never
// blocks.
func (cc *ChunkCache) preserve(e *entry) {
	a, i := cc.cow[e.key.file], e.key.idx
	if a == nil || i >= len(a.ids) || a.ids[i] == 0 || a.ids[i] != e.id || e.valid != nil {
		return
	}
	key := chunkKey{a.ckpt, a.start + i}
	if _, ok := cc.entries[key]; ok || cc.buffers() >= cc.cfg.Chunks() {
		return
	}
	a.ids[i] = 0
	p := &entry{key: key, dirty: make([]bool, cc.pagesPerChunk()), pre: true}
	cc.entries[key] = p
	p.lru = cc.lru.PushBack(p)
	cc.lend(e, p)
	cc.own(e)
	cc.byID[p.id] = p
}

// MarkFresh records that a file was just created by this node, so all its
// chunks are known-zero until first written (write allocation skips the
// read-modify-write fetch).
func (cc *ChunkCache) MarkFresh(ctx store.Ctx, fi proto.FileInfo) {
	cc.env.Lock(ctx)
	defer cc.env.Unlock(ctx)
	cc.meta[fi.Name] = &fi
	for i := range fi.Chunks {
		cc.virgin[chunkKey{fi.Name, i}] = true
	}
}

// Stats returns a snapshot of the counters. Safe to call concurrently with
// a running simulation (the counters are atomic).
func (cc *ChunkCache) Stats() Stats {
	return Stats{
		FuseReadBytes:  cc.s.fuseRead.Load(),
		FuseWriteBytes: cc.s.fuseWrite.Load(),
		SSDReadBytes:   cc.s.ssdRead.Load(),
		SSDWriteBytes:  cc.s.ssdWrite.Load(),
		PrefetchBytes:  cc.s.prefetch.Load(),
		PrefetchWasted: cc.s.prefetchWasted.Load(),
		Hits:           cc.s.hits.Load(),
		Misses:         cc.s.misses.Load(),
		Waits:          cc.s.waits.Load(),
		Evictions:      cc.s.evictions.Load(),
		DirtyEvictions: cc.s.dirtyEvictions.Load(),
		Spills:         cc.s.spills.Load(),
		Remaps:         cc.s.remaps.Load(),
		Flushes:        cc.s.flushes.Load(),
		MetaRetries:    cc.s.metaRetries.Load(),
	}
}

// ResetStats zeroes the counters (between experiment phases).
func (cc *ChunkCache) ResetStats() {
	for _, c := range []*obs.Counter{
		cc.s.fuseRead, cc.s.fuseWrite, cc.s.ssdRead, cc.s.ssdWrite,
		cc.s.prefetch, cc.s.prefetchWasted, cc.s.hits, cc.s.misses, cc.s.waits,
		cc.s.evictions, cc.s.dirtyEvictions, cc.s.spills,
		cc.s.remaps, cc.s.flushes, cc.s.metaRetries,
	} {
		c.Set(0)
	}
}

// Store returns the underlying store client.
func (cc *ChunkCache) Store() store.Client { return cc.store }

// Config returns the cache geometry.
func (cc *ChunkCache) Config() Config { return cc.cfg }

// Obs returns the cache's observability handle, so the layers above
// (core.Client, the checkpoint engine) mint their root spans on the same
// rings the cache records into.
func (cc *ChunkCache) Obs() *obs.Obs { return cc.cfg.Obs }

// NowNanos reads the execution substrate's clock: wall time on a GoEnv,
// virtual simulated time under simstore. Span timestamps taken through it
// stay consistent with the cache's own.
func (cc *ChunkCache) NowNanos(ctx store.Ctx) int64 { return cc.env.NowNanos(ctx) }

// span starts a cache-layer child span under ctx's trace and returns it
// along with the context to hand to the store, so deeper layers (wire,
// benefactor) nest under the cache span. An untraced ctx returns (nil, ctx)
// — the nil *ActiveSpan is safe to use and records nothing. Lock held.
func (cc *ChunkCache) span(ctx store.Ctx, name, file string) (*obs.ActiveSpan, store.Ctx) {
	sc := store.SpanOf(ctx)
	if !sc.Traced() {
		return nil, ctx
	}
	sp := cc.cfg.Obs.StartSpanAt(sc.Trace, sc.Parent, name, cc.env.NowNanos(ctx))
	sp.SetVar(file)
	return sp, store.WithSpan(ctx, store.SpanInfo{Trace: sp.Trace(), Parent: sp.ID(), Var: file})
}

// fileMeta returns the (possibly cached) chunk map of a file. Lock held;
// released around the manager RPC.
func (cc *ChunkCache) fileMeta(ctx store.Ctx, file string) (*proto.FileInfo, error) {
	if fi, ok := cc.meta[file]; ok {
		return fi, nil
	}
	cc.env.Unlock(ctx)
	fi, err := cc.store.Lookup(ctx, file)
	cc.env.Lock(ctx)
	if err != nil {
		return nil, err
	}
	// Another accessor may have populated (or re-seeded) the map while we
	// were on the wire; its copy is at least as fresh.
	if cached, ok := cc.meta[file]; ok {
		return cached, nil
	}
	cc.meta[file] = &fi
	return &fi, nil
}

// RegisterMeta seeds the metadata cache (used right after Create so the
// creator needs no extra lookup).
func (cc *ChunkCache) RegisterMeta(ctx store.Ctx, fi proto.FileInfo) {
	cc.env.Lock(ctx)
	cc.meta[fi.Name] = &fi
	cc.env.Unlock(ctx)
}

// staleMeta reports whether err says the cached chunk map of file is
// stale: ErrNoSuchChunk, because another client remapped, rewrote or
// deleted the file while the map aged. It then drops the map, so that the
// next fileMeta looks the file up afresh, and counts and logs the retry
// the caller makes. Lock held.
func (cc *ChunkCache) staleMeta(ctx store.Ctx, err error, file string) bool {
	if !errors.Is(err, proto.ErrNoSuchChunk) {
		return false
	}
	delete(cc.meta, file)
	cc.s.metaRetries.Inc()
	cc.cfg.Obs.Event("fusecache", "meta-retry", store.SpanOf(ctx).Trace,
		fmt.Sprintf("stale chunk map for %q, re-fetching", file))
	return true
}

// InvalidateMeta drops the cached chunk map of a file.
func (cc *ChunkCache) InvalidateMeta(ctx store.Ctx, file string) {
	cc.env.Lock(ctx)
	delete(cc.meta, file)
	cc.env.Unlock(ctx)
}

// ArmCOW marks a file's chunks as potentially checkpoint-shared: the next
// writeback of each chunk will consult the manager for a copy-on-write
// remap. ckpt names the checkpoint file that shares them, from chunk index
// start on, and chunks lists the checkpoint's chunks there (the file's
// chunk i is ckpt's chunk start+i): the first write that changes a chunk
// whose clean bytes are still the checkpoint's keeps those bytes resident
// as the checkpoint's entry (preserve). A nil chunks arms the remap alone.
// Arming again replaces what the previous call recorded.
func (cc *ChunkCache) ArmCOW(ctx store.Ctx, file, ckpt string, start int, chunks []proto.ChunkRef) {
	a := &armed{ckpt: ckpt, start: start, ids: make([]proto.ChunkID, len(chunks))}
	for i, ref := range chunks {
		a.ids[i] = ref.ID
	}
	cc.env.Lock(ctx)
	cc.cow[file] = a
	cc.env.Unlock(ctx)
}

// DisarmCOW clears the COW mark (after Free).
func (cc *ChunkCache) DisarmCOW(ctx store.Ctx, file string) {
	cc.env.Lock(ctx)
	delete(cc.cow, file)
	cc.env.Unlock(ctx)
}

// pagesPerChunk returns the dirty-bitmap width.
func (cc *ChunkCache) pagesPerChunk() int { return int(cc.cfg.ChunkSize / cc.cfg.PageSize) }

// acquire returns the cache entry for (file, idx), ready for an access to
// [off, off+n) of the chunk: resident (fut == nil), freshly touched in the
// LRU, and holding every byte the access needs (holds). A miss fetches the
// chunk, except where nothing in it needs reading: a known-zero chunk, or a
// write that covers whole pages only. Lock held.
func (cc *ChunkCache) acquire(ctx store.Ctx, file string, idx int, off, n int64, write bool) (*entry, error) {
	key := chunkKey{file, idx}
	retried := false
	for {
		if e, ok := cc.entries[key]; ok {
			if e.fut != nil {
				cc.s.waits.Inc()
				fut := e.fut
				cc.env.Unlock(ctx)
				fut.Wait(ctx)
				cc.env.Lock(ctx)
				continue // state changed; re-check
			}
			if write && e.shared() {
				// Nothing writes to a buffer with two holders: copy it
				// first, once there is room for the copy.
				if cc.buffers() >= cc.cfg.Chunks() {
					if err := cc.ensureRoom(ctx); err != nil {
						return nil, err
					}
					continue // eviction let go of the lock; re-check
				}
				cc.own(e)
			} else if write && e.nDirty == 0 {
				cc.preserve(e)
			}
			if cc.holds(e, off, n, write) {
				cc.s.hits.Inc()
			} else if err := cc.complete(ctx, e); err != nil {
				return nil, err
			}
			cc.lru.MoveToFront(e.lru)
			e.pre = false
			if e.prefetch {
				e.prefetch = false
				cc.spec--
				cc.advance(ctx, file, idx, true)
			}
			return e, nil
		}
		// Demand miss. fileMeta may block on a manager RPC, so the entry
		// may appear (or start loading) underneath us; fetch re-checks and
		// reports a race by returning a nil entry.
		fi, err := cc.fileMeta(ctx, file)
		if err != nil {
			return nil, err
		}
		if idx < 0 || idx >= len(fi.Chunks) {
			return nil, fmt.Errorf("%w: chunk %d of %q (%d chunks)", proto.ErrChunkOutOfRange, idx, file, len(fi.Chunks))
		}
		if fresh := cc.virgin[key]; fresh || write && off%cc.cfg.PageSize == 0 && n%cc.cfg.PageSize == 0 {
			// Known-zero chunk of a freshly created file, or pages the write
			// overwrites whole: materialize the entry without any store
			// traffic, and without moving the read-ahead stream. Only a
			// known-zero entry holds the pages the write does not cover.
			if err := cc.ensureRoom(ctx); err != nil {
				return nil, err
			}
			if _, ok := cc.entries[key]; ok {
				continue // raced during eviction
			}
			delete(cc.virgin, key)
			e := &entry{
				key:   key,
				data:  cc.installBuffer(fresh),
				dirty: make([]bool, cc.pagesPerChunk()),
			}
			if fresh {
				cc.index(e, fi.Chunks[idx].ID)
			} else {
				e.valid = make([]bool, cc.pagesPerChunk())
			}
			cc.entries[key] = e
			e.lru = cc.lru.PushFront(e)
			return e, nil
		}
		// The stream moves on before the fetch blocks, so the read-ahead a
		// sequential miss earns is on the wire together with the miss.
		cc.advance(ctx, file, idx, false)
		e, err := cc.fetch(ctx, key, refsCopy(*fi, idx), nil)
		if err != nil {
			if !retried && cc.staleMeta(ctx, err, file) {
				retried = true // once, against a fresh map
				continue
			}
			return nil, err
		}
		if e == nil {
			continue // lost a race; re-check the map
		}
		if write && e.shared() {
			// A write that borrowed the chunk: the resident branch copies
			// the buffer before the write, and counts the hit.
			continue
		}
		if e.borrowed {
			cc.s.hits.Inc()
		} else {
			cc.s.misses.Inc()
		}
		return e, nil
	}
}

// refsCopy returns a private copy of chunk idx's replica set so it can be
// handed to the store outside the lock.
func refsCopy(fi proto.FileInfo, idx int) []proto.ChunkRef {
	return append([]proto.ChunkRef(nil), store.ReplicaRefs(fi, idx)...)
}

// fetch makes room for one chunk, reserves its entry and loads it — from
// the store, or from a resident entry that can lend its buffer, which takes
// no room. The demand path calls it with ra nil; a read-ahead task that
// could not be given an entry when it was spawned (roomNow) calls it with
// the stream that issued it. A nil, nil return means another accessor started
// or finished loading the chunk first, or — for read-ahead — that Drop
// retired the stream since: the name may be gone, or live again under a new
// one. Both are checked again after ensureRoom, which lets go of the lock.
// Lock held.
func (cc *ChunkCache) fetch(ctx store.Ctx, key chunkKey, refs []proto.ChunkRef, ra *stream) (*entry, error) {
	stale := func() bool {
		_, ok := cc.entries[key]
		return ok || (ra != nil && cc.streams[key.file] != ra)
	}
	if stale() {
		return nil, nil
	}
	if cc.lendable(refs) == nil {
		if err := cc.ensureRoom(ctx); err != nil {
			return nil, err
		}
		if stale() {
			return nil, nil
		}
	}
	return cc.load(ctx, cc.reserve(key, ra != nil), refs)
}

// reserve enters a loading entry for key: accessors wait on its future,
// Drop waits it out, and nothing evicts it. The caller has made room. Lock
// held.
func (cc *ChunkCache) reserve(key chunkKey, prefetch bool) *entry {
	e := &entry{
		key:      key,
		dirty:    make([]bool, cc.pagesPerChunk()),
		fut:      cc.env.NewFuture("load " + key.file),
		prefetch: prefetch,
	}
	cc.entries[key] = e
	e.lru = cc.lru.PushFront(e)
	return e
}

// unreserve withdraws a reservation that will not be loaded and releases
// its waiters, who re-check the map. Lock held.
func (cc *ChunkCache) unreserve(e *entry) {
	if e.prefetch {
		cc.spec--
	}
	delete(cc.entries, e.key)
	cc.lru.Remove(e.lru)
	e.fut.Set()
}

// settle ends an entry's load, fill or flush and wakes its waiters. Lock
// held.
func (cc *ChunkCache) settle(e *entry) {
	fut := e.fut
	e.fut = nil
	fut.Set()
}

// getChunk reads one chunk of file from the store under the request gate.
// Lock held; released around the gate and the transfer.
func (cc *ChunkCache) getChunk(ctx store.Ctx, file string, refs []proto.ChunkRef) ([]byte, error) {
	sp, fctx := cc.span(ctx, "cache.get_chunk", file)
	cc.env.Unlock(ctx)
	cc.gate.Acquire(fctx)
	data, err := cc.store.GetChunk(fctx, refs)
	cc.gate.Release(fctx)
	cc.env.Lock(ctx)
	sp.AddBytes(int64(len(data)))
	sp.SetErr(err)
	sp.EndAt(cc.env.NowNanos(ctx))
	if err == nil {
		cc.s.ssdRead.Add(int64(len(data)))
	}
	return data, err
}

// load fills a reserved entry: it borrows the buffer of a resident entry
// that can lend one, and otherwise fetches from the store. Lock held;
// released around the gate and the transfer.
func (cc *ChunkCache) load(ctx store.Ctx, e *entry, refs []proto.ChunkRef) (*entry, error) {
	if cc.borrow(e, refs) {
		cc.settle(e)
		return e, nil
	}
	data, err := cc.getChunk(ctx, e.key.file, refs)
	if err != nil {
		cc.unreserve(e)
		return nil, err
	}
	if cc.lender != nil && int64(len(data)) == cc.cfg.ChunkSize {
		// The store lends caller-owned buffers: adopt the payload as the
		// entry's data outright (no copy) and return it at eviction. It
		// takes a free slot, which a spare may no longer keep.
		e.data = data
		if len(cc.spares) > cc.cfg.Chunks()-cc.buffers() {
			cc.lender.ReleaseChunk(cc.popSpare())
		}
	} else {
		// Own a private copy: benefactor backends may alias their storage.
		// The copy goes into a spare when there is one, such as the buffer
		// the eviction that made room for this load just gave up.
		e.data = cc.installBuffer(false)[:len(data)]
		copy(e.data, data)
		if cc.lender != nil {
			cc.lender.ReleaseChunk(data)
		}
	}
	if e.prefetch {
		cc.s.prefetch.Add(int64(len(data)))
	}
	cc.index(e, refs[0].ID)
	cc.settle(e)
	return e, nil
}

// holds reports whether e has every byte an access to [off, off+n) of its
// chunk needs: a read needs each page it touches, a write only the pages it
// covers in part. Lock held.
func (cc *ChunkCache) holds(e *entry, off, n int64, write bool) bool {
	if e.valid == nil {
		return true
	}
	ps := cc.cfg.PageSize
	first, last := off/ps, (off+n-1)/ps
	if write {
		return (off%ps == 0 || e.valid[first]) && ((off+n)%ps == 0 || e.valid[last])
	}
	for pg := first; pg <= last; pg++ {
		if !e.valid[pg] {
			return false
		}
	}
	return true
}

// complete fills a partly valid entry for an access that needs pages it
// does not hold, retrying once against a fresh chunk map if the cached one
// is stale. Lock held; released around the fetch, with e.fut set so that
// no other accessor, eviction or Drop touches the entry meanwhile.
func (cc *ChunkCache) complete(ctx store.Ctx, e *entry) error {
	e.fut = cc.env.NewFuture("fill " + e.key.file)
	defer cc.settle(e)
	for retried := false; ; retried = true {
		fi, err := cc.fileMeta(ctx, e.key.file)
		if err != nil {
			return err
		}
		if e.key.idx >= len(fi.Chunks) {
			return fmt.Errorf("%w: fill of %q chunk %d", proto.ErrChunkOutOfRange, e.key.file, e.key.idx)
		}
		err = cc.fill(ctx, e, refsCopy(*fi, e.key.idx))
		if retried || !cc.staleMeta(ctx, err, e.key.file) {
			return err
		}
	}
}

// fill fetches a partly valid entry's chunk and copies it into the pages
// the entry does not hold — the ones it holds are as new or newer — which
// makes the entry whole. It counts as a demand miss. Lock held; the caller
// has set e.fut.
func (cc *ChunkCache) fill(ctx store.Ctx, e *entry, refs []proto.ChunkRef) error {
	cc.s.misses.Inc()
	data, err := cc.getChunk(ctx, e.key.file, refs)
	if err != nil {
		return err
	}
	ps := cc.cfg.PageSize
	for pg, ok := range e.valid {
		if !ok {
			off := int64(pg) * ps
			page := e.data[off : off+ps]
			clear(page[copy(page, data[min(off, int64(len(data))):]):])
		}
	}
	e.valid = nil
	if cc.lender != nil {
		cc.lender.ReleaseChunk(data)
	}
	return nil
}

// roomNow reports whether one more entry fits without blocking, evicting
// the LRU victim on the spot if it is clean. Lock held, and kept.
func (cc *ChunkCache) roomNow(ctx store.Ctx) bool {
	if cc.buffers() < cc.cfg.Chunks() {
		return true
	}
	v := cc.pickVictim()
	return v != nil && v.nDirty == 0 && cc.evict(ctx, v) == nil && cc.buffers() < cc.cfg.Chunks()
}

// ensureRoom evicts LRU entries until a new chunk buffer fits. Lock held.
func (cc *ChunkCache) ensureRoom(ctx store.Ctx) error {
	for cc.buffers() >= cc.cfg.Chunks() {
		victim := cc.pickVictim()
		if victim == nil {
			// Everything resident is in flight; wait for the oldest
			// transition and retry.
			if w := cc.oldestBusy(); w != nil {
				cc.s.waits.Inc()
				cc.env.Unlock(ctx)
				w.Wait(ctx)
				cc.env.Lock(ctx)
				continue
			}
			return fmt.Errorf("fusecache: cache wedged with %d entries", len(cc.entries))
		}
		if err := cc.evict(ctx, victim); err != nil {
			return err
		}
	}
	return nil
}

// pickVictim returns the least-recently-used resident entry.
func (cc *ChunkCache) pickVictim() *entry {
	for el := cc.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if e.fut == nil {
			return e
		}
	}
	return nil
}

// oldestBusy returns the future of some in-flight entry, if any.
func (cc *ChunkCache) oldestBusy() store.Future {
	for el := cc.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*entry); e.fut != nil {
			return e.fut
		}
	}
	return nil
}

// evict writes back a victim's dirty pages and drops it. An untouched
// pre-image is dropped as it is: it counts as no eviction and never
// spills. Lock held.
func (cc *ChunkCache) evict(ctx store.Ctx, e *entry) error {
	if e.pre {
		cc.remove(e)
		return nil
	}
	cc.s.evictions.Inc()
	if e.nDirty > 0 {
		cc.s.dirtyEvictions.Inc()
		e.fut = cc.env.NewFuture("flush " + e.key.file)
		err := cc.writeback(ctx, e)
		cc.settle(e)
		if err != nil {
			return err
		}
	}
	// The victim is clean now; hand its payload to the spill tier (a
	// synchronous copy) before the buffer goes back to the lender pool —
	// the tier copies, it never adopts, so ownership is undisturbed. A
	// partly valid payload is not the chunk, and never spills.
	if cc.spiller != nil && e.data != nil && e.valid == nil {
		if fi, ok := cc.meta[e.key.file]; ok && e.key.idx < len(fi.Chunks) {
			cc.s.spills.Inc()
			cc.spiller.SpillChunk(ctx, refsCopy(*fi, e.key.idx), e.data)
		}
	}
	cc.remove(e)
	return nil
}

// remove takes a resident entry off the cache maps and returns its buffer,
// counting it as wasted read-ahead if nothing ever touched it. Lock held.
func (cc *ChunkCache) remove(e *entry) {
	if e.prefetch {
		cc.wasted(e)
	}
	delete(cc.entries, e.key)
	cc.lru.Remove(e.lru)
	cc.releaseEntry(e)
	cc.unindex(e)
}

// writeback ships an entry's dirty pages to its benefactor, performing the
// copy-on-write remap first when the file is armed. On return the entry is
// clean, and indexed by the chunk it shipped to. Lock held; the caller must
// have set e.fut so no other accessor touches the entry while the lock is
// released around store calls.
func (cc *ChunkCache) writeback(ctx store.Ctx, e *entry) error {
	fi, err := cc.fileMeta(ctx, e.key.file)
	if err != nil {
		return err
	}
	if e.key.idx >= len(fi.Chunks) {
		return fmt.Errorf("%w: writeback of %q chunk %d", proto.ErrChunkOutOfRange, e.key.file, e.key.idx)
	}
	refs := refsCopy(*fi, e.key.idx)
	if cc.cow[e.key.file] != nil {
		cc.env.Unlock(ctx)
		fresh, err := cc.store.Remap(ctx, e.key.file, e.key.idx)
		cc.env.Lock(ctx)
		if err != nil {
			return err
		}
		if len(fresh) > 0 && fresh[0] != refs[0] {
			cc.s.remaps.Inc()
			fi.Chunks[e.key.idx] = fresh[0]
			if e.key.idx < len(fi.Replicas) {
				fi.Replicas[e.key.idx] = fresh
			}
			refs = fresh
		}
	}
	err = cc.ship(ctx, e, refs)
	if cc.staleMeta(ctx, err, e.key.file) {
		// Retry once against the fresh map.
		fi, lerr := cc.fileMeta(ctx, e.key.file)
		switch {
		case errors.Is(lerr, proto.ErrNoSuchFile):
			refs, err = nil, nil // file is gone; its dirty data dies with it
		case lerr != nil:
			err = lerr
		case e.key.idx >= len(fi.Chunks):
			refs, err = nil, nil // file shrank; nothing left to persist
		default:
			refs = refsCopy(*fi, e.key.idx)
			err = cc.ship(ctx, e, refs)
		}
	}
	if err != nil {
		return err
	}
	var id proto.ChunkID // 0: the bytes are no chunk's payload
	if len(refs) > 0 {
		id = refs[0].ID
	}
	cc.index(e, id)
	for i := range e.dirty {
		e.dirty[i] = false
	}
	e.nDirty = 0
	return nil
}

// ship performs the actual writeback transfer: the whole chunk when every
// page is dirty (or the Table VII optimization is disabled), otherwise
// only the dirty pages. Lock held; released around the transfer.
func (cc *ChunkCache) ship(ctx store.Ctx, e *entry, refs []proto.ChunkRef) error {
	if cc.cfg.WriteFullChunks && e.valid != nil {
		// A whole-chunk put must not carry pages the entry never held.
		if err := cc.fill(ctx, e, refs); err != nil {
			return err
		}
	}
	if e.nDirty == len(e.dirty) || cc.cfg.WriteFullChunks {
		sp, sctx := cc.span(ctx, "cache.put_chunk", e.key.file)
		cc.env.Unlock(ctx)
		cc.gate.Acquire(sctx)
		err := cc.store.PutChunk(sctx, refs, e.data)
		cc.gate.Release(sctx)
		cc.env.Lock(ctx)
		sp.AddBytes(int64(len(e.data)))
		sp.SetErr(err)
		sp.EndAt(cc.env.NowNanos(ctx))
		if err != nil {
			return err
		}
		cc.s.ssdWrite.Add(int64(len(e.data)))
		return nil
	}
	var offs []int64
	var pages [][]byte
	ps := cc.cfg.PageSize
	for i, d := range e.dirty {
		if !d {
			continue
		}
		off := int64(i) * ps
		offs = append(offs, off)
		pages = append(pages, e.data[off:off+ps])
	}
	sp, sctx := cc.span(ctx, "cache.put_pages", e.key.file)
	cc.env.Unlock(ctx)
	cc.gate.Acquire(sctx)
	err := cc.store.PutPages(sctx, refs, offs, pages)
	cc.gate.Release(sctx)
	cc.env.Lock(ctx)
	sp.AddBytes(int64(len(pages)) * ps)
	sp.SetErr(err)
	sp.EndAt(cc.env.NowNanos(ctx))
	if err != nil {
		return err
	}
	cc.s.ssdWrite.Add(int64(len(pages)) * ps)
	return nil
}

// locate splits a byte offset into (chunk index, offset within chunk).
func (cc *ChunkCache) locate(off int64) (int, int64) {
	return int(off / cc.cfg.ChunkSize), off % cc.cfg.ChunkSize
}

// ReadRange copies [off, off+len(buf)) of file into buf through the cache.
// The page layer calls this with single pages; larger spans are also
// supported for bulk I/O (checkpoint streaming).
func (cc *ChunkCache) ReadRange(ctx store.Ctx, file string, off int64, buf []byte) error {
	cc.s.fuseRead.Add(int64(len(buf)))
	cc.env.Lock(ctx)
	defer cc.env.Unlock(ctx)
	for len(buf) > 0 {
		idx, coff := cc.locate(off)
		e, err := cc.acquire(ctx, file, idx, coff, min(int64(len(buf)), cc.cfg.ChunkSize-coff), false)
		if err != nil {
			return err
		}
		n := copy(buf, e.data[coff:])
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// WriteRange writes data into file at off through the cache, marking the
// touched pages dirty. Writes are page-aligned when they come from the
// page layer, and then never read the chunk; arbitrary alignment is
// handled for bulk I/O.
func (cc *ChunkCache) WriteRange(ctx store.Ctx, file string, off int64, data []byte) error {
	cc.s.fuseWrite.Add(int64(len(data)))
	ps := cc.cfg.PageSize
	cc.env.Lock(ctx)
	defer cc.env.Unlock(ctx)
	for len(data) > 0 {
		idx, coff := cc.locate(off)
		e, err := cc.acquire(ctx, file, idx, coff, min(int64(len(data)), cc.cfg.ChunkSize-coff), true)
		if err != nil {
			return err
		}
		n := copy(e.data[coff:], data)
		firstPage := int(coff / ps)
		lastPage := int((coff + int64(n) - 1) / ps)
		for pg := firstPage; pg <= lastPage; pg++ {
			if !e.dirty[pg] {
				e.dirty[pg] = true
				e.nDirty++
			}
			if e.valid != nil && !e.valid[pg] {
				e.valid[pg] = true
				if e.nValid++; e.nValid == len(e.valid) {
					e.valid = nil // every page written: the entry is whole
				}
			}
		}
		data = data[n:]
		off += int64(n)
	}
	return nil
}

// Flush writes back every dirty chunk of file, leaving the data cached.
// Called before checkpoints and on Sync. Writebacks are issued from
// parallel flusher tasks (the FUSE daemon's request concurrency gate still
// bounds how many are actually in flight).
func (cc *ChunkCache) Flush(ctx store.Ctx, file string) error {
	cc.s.flushes.Inc()
	cc.env.Lock(ctx)
	defer cc.env.Unlock(ctx)
	// Deterministic order: ascending chunk index.
	fi, ok := cc.meta[file]
	if !ok {
		var err error
		fi, err = cc.fileMeta(ctx, file)
		if err != nil {
			return err
		}
	}
	var flushErr error
	// The substrate hands flusher tasks a fresh ctx (no span info), so
	// capture the caller's trace here and re-wrap inside the closure: the
	// writeback spans then nest under the caller's flush, not float as
	// orphan roots.
	sc := store.SpanOf(ctx)
	g := cc.env.NewGroup()
	for idx := range fi.Chunks {
		e, ok := cc.entries[chunkKey{file, idx}]
		if !ok {
			continue
		}
		for e.fut != nil {
			cc.s.waits.Inc()
			fut := e.fut
			cc.env.Unlock(ctx)
			fut.Wait(ctx)
			cc.env.Lock(ctx)
			var still bool
			if e, still = cc.entries[chunkKey{file, idx}]; !still {
				break
			}
		}
		if e == nil || e.nDirty == 0 {
			continue
		}
		e.fut = cc.env.NewFuture("flush " + file)
		ent := e
		g.Go(ctx, "flush "+file, func(fctx store.Ctx) {
			if sc.Traced() {
				fctx = store.WithSpan(fctx, sc)
			}
			cc.env.Lock(fctx)
			err := cc.writeback(fctx, ent)
			cc.settle(ent)
			if err != nil && flushErr == nil {
				flushErr = err
			}
			cc.env.Unlock(fctx)
		})
	}
	cc.env.Unlock(ctx)
	g.Wait(ctx)
	cc.env.Lock(ctx)
	return flushErr
}

// FlushAll writes back every dirty chunk of every cached file (connection
// teardown, global sync).
func (cc *ChunkCache) FlushAll(ctx store.Ctx) error {
	cc.env.Lock(ctx)
	files := make(map[string]bool)
	for k, e := range cc.entries {
		if e.nDirty > 0 {
			files[k.file] = true
		}
	}
	// Deterministic order helps the simulation; sort the file names.
	names := make([]string, 0, len(files))
	for f := range files {
		names = append(names, f)
	}
	cc.env.Unlock(ctx)
	sort.Strings(names)
	var firstErr error
	for _, f := range names {
		if err := cc.Flush(ctx, f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Drop discards every cached chunk of file (dirty pages are discarded —
// used by Free, whose semantics destroy the backing file anyway). In-flight
// loads or flushes of the file are waited out first, and read-ahead that is
// spawned but not yet in flight is fenced off, so a straggling fetch cannot
// resurrect data under a name that may be recreated.
func (cc *ChunkCache) Drop(ctx store.Ctx, file string) {
	cc.env.Lock(ctx)
	defer cc.env.Unlock(ctx)
	// Read-ahead that is spawned and not yet loading must load nothing:
	// retire the stream, which fences tasks that have no entry yet, and
	// withdraw the entries of those that have (below).
	delete(cc.streams, file)
	for {
		var busy store.Future
		for k, e := range cc.entries {
			if k.file != file {
				continue
			}
			if e.queued {
				cc.unreserve(e)
			} else if e.fut != nil {
				busy = e.fut
				break
			}
		}
		if busy == nil {
			break
		}
		cc.env.Unlock(ctx)
		busy.Wait(ctx)
		cc.env.Lock(ctx)
	}
	var victims []*entry
	for k, e := range cc.entries {
		if k.file == file {
			victims = append(victims, e)
		}
	}
	for _, e := range victims {
		cc.remove(e)
	}
	delete(cc.meta, file)
	delete(cc.cow, file)
	for _, a := range cc.cow {
		if a.ckpt == file {
			a.ids = nil // the checkpoint is going: keep no pre-image of it
		}
	}
	for k := range cc.virgin {
		if k.file == file {
			delete(cc.virgin, k)
		}
	}
}

// ReleaseSpares hands the cache's spare buffers back to the lending store's
// pool (or to the garbage collector without a lender). A client that is
// closing calls it: its cache fills nothing more, and the buffers then go
// where Drop sends a buffer that finds no free slot.
func (cc *ChunkCache) ReleaseSpares(ctx store.Ctx) {
	cc.env.Lock(ctx)
	defer cc.env.Unlock(ctx)
	for buf := cc.popSpare(); buf != nil; buf = cc.popSpare() {
		if cc.lender != nil {
			cc.lender.ReleaseChunk(buf)
		}
	}
}

// Resident returns how many chunks of file are currently cached.
func (cc *ChunkCache) Resident(ctx store.Ctx, file string) int {
	cc.env.Lock(ctx)
	defer cc.env.Unlock(ctx)
	n := 0
	for k := range cc.entries {
		if k.file == file {
			n++
		}
	}
	return n
}
