package nvmalloc

import (
	"fmt"

	"nvmalloc/internal/core"
	"nvmalloc/internal/filecache"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/store"
)

// ConnectConfig tunes a live-store client built by Connect. The zero value
// is a sensible single-process deployment: the paper's 64 MB FUSE cache
// over 4 KB pages, read-ahead of 2 chunks, an 8 MB page cache, rank 0.
type ConnectConfig struct {
	// Rank is the application rank this client claims (names default
	// variable files; informational otherwise).
	Rank int
	// CacheBytes sizes the FUSE-layer chunk cache. 0 means 64 MB (the
	// paper's FUSE cache); rounded down to whole chunks, minimum one.
	// Negative is an error.
	CacheBytes int64
	// PageSize is the dirty-tracking granularity. 0 means 4096. Must
	// divide the store's chunk size.
	PageSize int64
	// PageCacheBytes sizes the rank-private page cache. 0 means 8 MB;
	// negative is an error.
	PageCacheBytes int64
	// ReadAheadChunks is the starting depth of a confirmed sequential run's
	// read-ahead window; the cache deepens it while the run continues, up
	// to half its request gate (DESIGN.md §8). 0 means 2 (Table III);
	// negative disables read-ahead.
	ReadAheadChunks int
	// WriteFullChunks disables the dirty-page writeback optimization
	// (Table VII baseline).
	WriteFullChunks bool
	// PoolSize is the connection-pool depth per benefactor (0 = rpc
	// default). It configures only the store Connect opens; ConnectStore
	// takes the store as it was opened.
	PoolSize int
	// Deprecated: has no effect. A Client's in-flight chunk transfers are
	// bounded by its chunk cache (fusecache.DefaultFuseConcurrency).
	Parallelism int
	// CacheDir, when non-empty, enables the persistent file-backed second
	// cache tier (internal/filecache): clean chunks evicted from the RAM
	// cache spill to NVC1 shard files under this directory and are served
	// from there across restarts ("warm restarts", README). One directory
	// per client process.
	CacheDir string
	// FileCacheBytes caps the file tier's payload bytes (0 = filecache
	// default, 1 GiB). Ignored without CacheDir.
	FileCacheBytes int64
}

// Connect opens a Client against a live TCP store deployment (cmd/nvmstore
// daemons): the manager at managerAddr hands out chunk placements and the
// client moves data directly to and from benefactors. On a sharded
// metadata plane, managerAddr is a comma-separated list of manager
// addresses in shard order ("host:port,host:port"); giving any one shard
// also works — the client discovers the rest from the piggybacked shard
// map. The returned Client is the same library code the simulation runs —
// Malloc, views, Checkpoint with real chunk linking and copy-on-write
// remap, Restore, Free — with a nil execution context in place of a
// simulation Proc:
//
//	c, err := nvmalloc.Connect("localhost:7070", nvmalloc.ConnectConfig{})
//	r, err := c.Malloc(nil, 1<<20, nvmalloc.WithName("state"))
//	...
//	info, err := c.Checkpoint(nil, "ckpt-1", dram, r)
//
// Close flushes every dirty page back to the benefactors and tears down
// the connections.
func Connect(managerAddr string, cfg ConnectConfig) (*Client, error) {
	st, err := rpc.OpenWith(managerAddr, rpc.Options{PoolSize: cfg.PoolSize})
	if err != nil {
		return nil, err
	}
	c, err := ConnectStore(st, cfg)
	if err != nil {
		st.Close()
		return nil, err
	}
	return c, nil
}

// ConnectStore builds a Client over an already open store: the store
// client, the optional file tier (CacheDir), the chunk cache and the page
// cache, configured by cfg as Connect configures them. It is the one place
// the TCP path assembles that stack. The Client takes st over: Close
// flushes every dirty page, waits for read-ahead to settle, commits the
// file tier and closes st. If ConnectStore returns an error, the caller
// still owns st.
func ConnectStore(st *rpc.Store, cfg ConnectConfig) (*Client, error) {
	if cfg.CacheBytes < 0 || cfg.PageCacheBytes < 0 {
		return nil, fmt.Errorf("nvmalloc: negative cache size (CacheBytes %d, PageCacheBytes %d)", cfg.CacheBytes, cfg.PageCacheBytes)
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
	if cfg.PageSize < 0 || st.ChunkSize()%cfg.PageSize != 0 {
		return nil, fmt.Errorf("nvmalloc: page size %d is not a positive divisor of chunk size %d", cfg.PageSize, st.ChunkSize())
	}
	env := store.NewGoEnv()
	var cl store.Client = rpc.NewStoreClient(st, 0)
	var tier *filecache.Tier
	if cfg.CacheDir != "" {
		var err error
		tier, err = filecache.NewTier(cl, filecache.Config{
			Dir:      cfg.CacheDir,
			MaxBytes: cfg.FileCacheBytes,
			Obs:      st.Obs(),
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
		Obs:             st.Obs(),
	})
	c := core.NewClient(cfg.Rank, nil, cc, cfg.PageCacheBytes)
	c.OnClose(func() error {
		ferr := cc.FlushAll(nil)
		env.Quiesce()
		var terr error
		if tier != nil {
			terr = tier.Close()
		}
		cerr := st.Close()
		if ferr != nil {
			return ferr
		}
		if terr != nil {
			return terr
		}
		return cerr
	})
	return c, nil
}
