package rpc

import (
	"fmt"

	"nvmalloc/internal/filecache"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/store"
)

// CacheConfig is the geometry of a CachedStore. It is a thin alias over
// fusecache.Config — the one FUSE-layer chunk cache shared with the
// simulation — minus the fields the TCP path derives itself (chunk size
// from the store, observability from the store's registry).
type CacheConfig struct {
	// CacheBytes is the cache capacity (paper: 64 MB). Rounded down to
	// whole chunks, minimum one chunk.
	CacheBytes int64
	// PageSize is the dirty-tracking granularity (paper: 4 KB pages).
	// 0 defaults to 4096. Must divide the store's chunk size.
	PageSize int64
	// ReadAheadChunks is the starting depth of a confirmed sequential run's
	// asynchronous read-ahead window; the cache deepens it while the run
	// continues, up to half its request gate (0 disables read-ahead).
	ReadAheadChunks int
	// WriteFullChunks disables the dirty-page write optimization: whole
	// chunks travel on every writeback however few pages are dirty — the
	// "without optimization" baseline of Table VII.
	WriteFullChunks bool
	// FuseConcurrency bounds concurrent store requests from this cache
	// (the FUSE daemon's thread pool in the paper). 0 keeps the fusecache
	// default.
	FuseConcurrency int
	// CacheDir, when non-empty, enables the persistent file-backed second
	// tier (internal/filecache): clean chunks evicted from the RAM LRU
	// spill to NVC1 shard files under this directory, and read misses
	// check the files before going to a benefactor. The directory must be
	// private to one client process at a time.
	CacheDir string
	// FileCacheBytes caps the file tier's payload bytes (0 = the
	// filecache default, 1 GiB). Ignored without CacheDir.
	FileCacheBytes int64
}

// CacheStats are a CachedStore's cumulative counters — a compatibility
// view over fusecache.Stats.
type CacheStats struct {
	Hits           int64
	Misses         int64
	Waits          int64 // accesses that waited on an in-flight fetch or flush
	Evictions      int64
	DirtyEvictions int64
	Remaps         int64 // copy-on-write remappings performed
	Flushes        int64
	ReadBytes      int64 // bytes served to the application
	WriteBytes     int64 // bytes accepted from the application
	PrefetchBytes  int64 // chunk bytes fetched by read-ahead
	PrefetchWasted int64 // of those, evicted or dropped without being touched
}

// CachedStore puts a client-side chunk cache in front of a Store. It is a
// thin shim over fusecache.ChunkCache — the same LRU/dirty-bitmap/
// read-ahead/COW implementation the simulation runs — driven by a
// store.GoEnv (real goroutines and a mutex instead of simulated procs).
// Reads hit the cache; writes dirty pages in place; on eviction or Flush
// only the dirty pages travel via OpPutPages (Table VII), and a sequential
// run keeps a window of asynchronous read-ahead in flight (Table III).
//
// All methods are safe for concurrent use.
type CachedStore struct {
	st  *Store
	env *store.GoEnv
	cc  *fusecache.ChunkCache
	// tier is the optional persistent file-backed second tier stacked
	// between the chunk cache and the wire client (nil without CacheDir).
	tier *filecache.Tier
}

// NewCachedStore wraps an open Store. Closing the CachedStore flushes the
// cache and closes the underlying Store.
func NewCachedStore(st *Store, cfg CacheConfig) (*CachedStore, error) {
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if st.ChunkSize()%cfg.PageSize != 0 {
		return nil, fmt.Errorf("rpc: page size %d does not divide chunk size %d", cfg.PageSize, st.ChunkSize())
	}
	if cfg.CacheBytes < st.ChunkSize() {
		cfg.CacheBytes = st.ChunkSize()
	}
	env := store.NewGoEnv()
	var cl store.Client = NewStoreClient(st, 0)
	var tier *filecache.Tier
	if cfg.CacheDir != "" {
		var err error
		tier, err = filecache.NewTier(cl, filecache.Config{
			Dir:      cfg.CacheDir,
			MaxBytes: cfg.FileCacheBytes,
			Obs:      st.obs,
		})
		if err != nil {
			return nil, err
		}
		cl = tier
	}
	cc := fusecache.NewChunkCache(env, cl, fusecache.Config{
		ChunkSize:       st.ChunkSize(),
		PageSize:        cfg.PageSize,
		CacheBytes:      cfg.CacheBytes,
		ReadAheadChunks: cfg.ReadAheadChunks,
		WriteFullChunks: cfg.WriteFullChunks,
		FuseConcurrency: cfg.FuseConcurrency,
		Obs:             st.obs,
	})
	return &CachedStore{st: st, env: env, cc: cc, tier: tier}, nil
}

// Store returns the underlying uncached client (for Manager access and
// data-path stats).
func (cs *CachedStore) Store() *Store { return cs.st }

// Cache exposes the shared FUSE-layer chunk cache (for core.NewClient).
func (cs *CachedStore) Cache() *fusecache.ChunkCache { return cs.cc }

// FileTierStats snapshots the persistent file tier's counters; ok is
// false when no CacheDir was configured.
func (cs *CachedStore) FileTierStats() (filecache.Stats, bool) {
	if cs.tier == nil {
		return filecache.Stats{}, false
	}
	return cs.tier.Stats(), true
}

// ChunkSize returns the striping unit.
func (cs *CachedStore) ChunkSize() int64 { return cs.st.ChunkSize() }

// Stats returns a snapshot of the cache counters.
func (cs *CachedStore) Stats() CacheStats {
	s := cs.cc.Stats()
	return CacheStats{
		Hits:           s.Hits,
		Misses:         s.Misses,
		Waits:          s.Waits,
		Evictions:      s.Evictions,
		DirtyEvictions: s.DirtyEvictions,
		Remaps:         s.Remaps,
		Flushes:        s.Flushes,
		ReadBytes:      s.FuseReadBytes,
		WriteBytes:     s.FuseWriteBytes,
		PrefetchBytes:  s.PrefetchBytes,
		PrefetchWasted: s.PrefetchWasted,
	}
}

// size returns a file's current size (via the store's cached metadata).
func (cs *CachedStore) size(ctx store.Ctx, name string) (int64, error) {
	fi, err := cs.st.fileInfo(store.SpanOf(ctx), name)
	if err != nil {
		return 0, err
	}
	return fi.Size, nil
}

// Create reserves a file of the given size and marks its chunks known-zero
// so first writes skip the read-modify-write fetch.
func (cs *CachedStore) Create(name string, size int64) error {
	return cs.CreateCtx(nil, name, size)
}

// CreateCtx is Create under a caller-provided span context (store.WithSpan),
// so the manager's allocation span nests in the caller's trace.
func (cs *CachedStore) CreateCtx(ctx store.Ctx, name string, size int64) error {
	fi, err := cs.st.create(store.SpanOf(ctx), name, size)
	if err != nil {
		return err
	}
	cs.cc.MarkFresh(ctx, fi)
	return nil
}

// Stat returns a file's metadata (consulting the manager).
func (cs *CachedStore) Stat(name string) (proto.FileInfo, error) {
	cs.cc.InvalidateMeta(nil, name)
	return cs.st.Stat(name)
}

// Delete drops the file's cached chunks — dirty pages included; the file
// is going away — before removing it from the store.
func (cs *CachedStore) Delete(name string) error {
	cs.cc.Drop(nil, name)
	return cs.st.Delete(name)
}

// Drop discards every cached chunk of file, dirty pages included.
func (cs *CachedStore) Drop(name string) { cs.cc.Drop(nil, name) }

// ArmCOW marks a file's chunks as possibly checkpoint-shared: the next
// writeback of each chunk remaps it copy-on-write (§III-E).
func (cs *CachedStore) ArmCOW(name string) { cs.cc.ArmCOW(nil, name) }

// ReadAt fills buf from the file at off through the cache.
func (cs *CachedStore) ReadAt(name string, off int64, buf []byte) error {
	return cs.ReadAtCtx(nil, name, off, buf)
}

// ReadAtCtx is ReadAt under a caller-provided span context.
func (cs *CachedStore) ReadAtCtx(ctx store.Ctx, name string, off int64, buf []byte) error {
	size, err := cs.size(ctx, name)
	if err != nil {
		return err
	}
	if off < 0 || off+int64(len(buf)) > size {
		return fmt.Errorf("%w: read [%d,%d) of %q (%d bytes)", proto.ErrChunkOutOfRange, off, off+int64(len(buf)), name, size)
	}
	return cs.cc.ReadRange(ctx, name, off, buf)
}

// WriteAt writes data into the file at off through the cache, marking the
// touched pages dirty. No bytes reach a benefactor until eviction or
// Flush, and then only dirty pages travel (unless WriteFullChunks).
func (cs *CachedStore) WriteAt(name string, off int64, data []byte) error {
	return cs.WriteAtCtx(nil, name, off, data)
}

// WriteAtCtx is WriteAt under a caller-provided span context.
func (cs *CachedStore) WriteAtCtx(ctx store.Ctx, name string, off int64, data []byte) error {
	size, err := cs.size(ctx, name)
	if err != nil {
		return err
	}
	if off < 0 || off+int64(len(data)) > size {
		return fmt.Errorf("%w: write [%d,%d) of %q (%d bytes)", proto.ErrChunkOutOfRange, off, off+int64(len(data)), name, size)
	}
	return cs.cc.WriteRange(ctx, name, off, data)
}

// Flush writes back every dirty cached chunk of file, leaving the data
// resident and clean.
func (cs *CachedStore) Flush(name string) error { return cs.cc.Flush(nil, name) }

// FlushCtx is Flush under a caller-provided span context, so writeback
// spans nest in the caller's trace.
func (cs *CachedStore) FlushCtx(ctx store.Ctx, name string) error { return cs.cc.Flush(ctx, name) }

// FlushAll writes back every dirty chunk in the cache.
func (cs *CachedStore) FlushAll() error { return cs.cc.FlushAll(nil) }

// Put uploads a whole payload as a (new) file through the cache.
func (cs *CachedStore) Put(name string, data []byte) error {
	return cs.PutCtx(nil, name, data)
}

// PutCtx is Put under a caller-provided span context. Note the payload only
// dirties the cache; pair with FlushCtx under the same context to trace the
// data's trip to the benefactors.
func (cs *CachedStore) PutCtx(ctx store.Ctx, name string, data []byte) error {
	if err := cs.CreateCtx(ctx, name, int64(len(data))); err != nil {
		return err
	}
	return cs.WriteAtCtx(ctx, name, 0, data)
}

// Get downloads a whole file through the cache.
func (cs *CachedStore) Get(name string) ([]byte, error) {
	return cs.GetCtx(nil, name)
}

// GetCtx is Get under a caller-provided span context.
func (cs *CachedStore) GetCtx(ctx store.Ctx, name string) ([]byte, error) {
	size, err := cs.size(ctx, name)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if err := cs.ReadAtCtx(ctx, name, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Resident returns how many chunks of file are currently cached.
func (cs *CachedStore) Resident(name string) int { return cs.cc.Resident(nil, name) }

// Close flushes all dirty pages, waits for read-ahead to settle, commits
// and closes the file tier (if any), and closes the underlying store.
func (cs *CachedStore) Close() error {
	ferr := cs.cc.FlushAll(nil)
	cs.env.Quiesce()
	var terr error
	if cs.tier != nil {
		terr = cs.tier.Close()
	}
	cerr := cs.st.Close()
	if ferr != nil {
		return ferr
	}
	if terr != nil {
		return terr
	}
	return cerr
}
