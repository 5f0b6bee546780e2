package core

import (
	"errors"
	"fmt"
	"time"

	"nvmalloc/internal/cluster"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/store"
)

// Client is the per-rank NVMalloc handle: ssdmalloc/ssdfree/ssdcheckpoint
// live here. Ranks on the same node share the node's FUSE chunk cache;
// each rank owns a private page cache (its "kernel page cache").
//
// A Client is transport neutral: the chunk cache it is built on decides
// whether store operations run on the simulated cluster (ctx carries the
// calling *simtime.Proc) or against live TCP daemons (ctx is nil).
type Client struct {
	rank   int
	node   *cluster.Node // nil outside the simulation
	cc     *fusecache.ChunkCache
	pc     *fusecache.PageCache
	seq    int
	closer func() error // optional connection teardown (TCP deployments)
}

// NewClient builds a rank handle over a node's chunk cache. cc may be nil
// for DRAM-only configurations (Malloc then fails, DRAM buffers still
// work); node may be nil outside the simulation. pageCacheBytes sizes the
// rank-private page cache.
func NewClient(rank int, node *cluster.Node, cc *fusecache.ChunkCache, pageCacheBytes int64) *Client {
	c := &Client{rank: rank, node: node, cc: cc}
	if cc != nil {
		c.pc = fusecache.NewPageCache(cc, pageCacheBytes)
	}
	return c
}

// OnClose registers a teardown hook invoked by Close (the facade's Connect
// uses it to flush and close the TCP store connection).
func (c *Client) OnClose(fn func() error) { c.closer = fn }

// Close tears down the client's connection to the store, if any, after
// its chunk cache has handed its spare buffers back.
func (c *Client) Close() error {
	if c.cc != nil {
		c.cc.ReleaseSpares(nil)
	}
	if c.closer != nil {
		fn := c.closer
		c.closer = nil
		return fn()
	}
	return nil
}

// Rank returns the client's application rank.
func (c *Client) Rank() int { return c.rank }

// Node returns the cluster node the client runs on (nil outside the
// simulation).
func (c *Client) Node() *cluster.Node { return c.node }

// PageCache exposes the rank's page cache (for stats).
func (c *Client) PageCache() *fusecache.PageCache { return c.pc }

// ChunkCache exposes the node's FUSE cache (for stats).
func (c *Client) ChunkCache() *fusecache.ChunkCache { return c.cc }

// rootSpan starts a library-level span (client.malloc, client.checkpoint,
// ...) on the chunk cache's observability and returns it with a ctx wrapped
// so every layer below — cache, wire, manager, benefactor — nests under it.
// When ctx already carries a trace (a tool drove this op under its own
// root) the span joins that trace instead of starting a fresh one. With
// observability disabled the span is nil (safe to use) and ctx is returned
// unwrapped. Callers must hold c.cc non-nil.
func (c *Client) rootSpan(ctx store.Ctx, name, varName string) (*obs.ActiveSpan, store.Ctx) {
	sc := store.SpanOf(ctx)
	sp := c.cc.Obs().StartSpanAt(sc.Trace, sc.Parent, name, c.cc.NowNanos(ctx))
	if sp == nil {
		return nil, ctx
	}
	sp.SetVar(varName)
	return sp, store.WithSpan(ctx, store.SpanInfo{Trace: sp.Trace(), Parent: sp.ID(), Var: varName})
}

// endRoot closes a rootSpan with the operation's outcome.
func (c *Client) endRoot(ctx store.Ctx, sp *obs.ActiveSpan, err error) {
	if sp == nil {
		return
	}
	sp.SetErr(err)
	sp.EndAt(c.cc.NowNanos(ctx))
}

// allocCfg collects Malloc options.
type allocCfg struct {
	name   string
	shared bool
}

// AllocOption customizes Malloc.
type AllocOption func(*allocCfg)

// WithName gives the backing store file an explicit name, making the
// variable nameable across ranks (shared mappings) and across application
// runs (persistent variables, the lifetime extension of §III-C).
func WithName(name string) AllocOption {
	return func(a *allocCfg) { a.name = name }
}

// Shared requests the paper's shared-mapping mode: every rank that
// allocates the same name — across all nodes — maps one backing file,
// saving storage space, I/O and network traffic (Fig. 4). The first
// allocator creates the file; the rest attach. Writers must Sync before
// readers on other nodes observe their data (mmap MAP_SHARED across nodes
// offers no stronger coherence either).
func Shared() AllocOption {
	return func(a *allocCfg) { a.shared = true }
}

// Region is a memory region allocated from the aggregate NVM store — the
// nvmvar of the paper. All accesses flow through the rank's page cache and
// the node's FUSE chunk cache, exactly like mmap traffic over FUSE.
type Region struct {
	c      *Client
	name   string
	size   int64
	shared bool
	freed  bool
	s      AppStats
}

// Malloc allocates size bytes from the aggregate NVM store (ssdmalloc).
// The client need not know where the backing chunks live; local and remote
// benefactors are transparent.
func (c *Client) Malloc(ctx store.Ctx, size int64, opts ...AllocOption) (*Region, error) {
	if c.cc == nil {
		return nil, errors.New("core: this configuration has no NVM store (DRAM-only)")
	}
	if size <= 0 {
		return nil, fmt.Errorf("core: ssdmalloc of %d bytes", size)
	}
	var a allocCfg
	for _, o := range opts {
		o(&a)
	}
	name := a.name
	switch {
	case a.shared:
		if name == "" {
			return nil, errors.New("core: shared allocation requires WithName")
		}
	case name == "":
		c.seq++
		name = fmt.Sprintf("nvmvar.r%d.%d", c.rank, c.seq)
	}
	sp, ctx := c.rootSpan(ctx, "client.malloc", name)
	r, err := c.malloc(ctx, name, size, a)
	c.endRoot(ctx, sp, err)
	return r, err
}

// malloc is Malloc's body, running under the client.malloc root span.
func (c *Client) malloc(ctx store.Ctx, name string, size int64, a allocCfg) (*Region, error) {
	fi, err := c.cc.Store().Create(ctx, name, size)
	switch {
	case err == nil && !a.shared:
		// Private file: its chunks are known-zero to this node until we
		// write them, so the cache can write-allocate without fetching.
		// Shared files cannot use this — a rank on another node may write
		// a chunk at any time, invalidating the known-zero assumption.
		c.cc.MarkFresh(ctx, fi)
	case err == nil:
		c.cc.RegisterMeta(ctx, fi)
	case errors.Is(err, proto.ErrFileExists) && a.shared:
		// Another rank created the shared mapping first; attach.
		if fi, err = c.cc.Store().Lookup(ctx, name); err != nil {
			return nil, err
		}
		c.cc.RegisterMeta(ctx, fi)
	default:
		return nil, err
	}
	return &Region{c: c, name: name, size: size, shared: a.shared}, nil
}

// Attach opens an existing named variable (persistent variables shared
// between jobs of a workflow, §III-C).
func (c *Client) Attach(ctx store.Ctx, name string) (*Region, error) {
	if c.cc == nil {
		return nil, errors.New("core: this configuration has no NVM store (DRAM-only)")
	}
	fi, err := c.cc.Store().Lookup(ctx, name)
	if err != nil {
		return nil, err
	}
	c.cc.RegisterMeta(ctx, fi)
	return &Region{c: c, name: name, size: fi.Size, shared: true}, nil
}

// Name implements Buffer.
func (r *Region) Name() string { return r.name }

// Size implements Buffer.
func (r *Region) Size() int64 { return r.size }

// Shared reports whether this is a shared mapping.
func (r *Region) Shared() bool { return r.shared }

func (r *Region) check(off, n int64) error {
	if r.freed {
		return fmt.Errorf("core: use of freed region %q", r.name)
	}
	if off < 0 || off+n > r.size {
		return fmt.Errorf("core: access [%d,%d) outside region %q of %d bytes", off, off+n, r.name, r.size)
	}
	return nil
}

// ReadAt implements Buffer: a byte-addressable load served through the
// page and chunk caches.
func (r *Region) ReadAt(ctx store.Ctx, off int64, buf []byte) error {
	if err := r.check(off, int64(len(buf))); err != nil {
		return err
	}
	r.s.Reads++
	r.s.ReadBytes += int64(len(buf))
	return r.c.pc.Read(ctx, r.name, off, buf)
}

// WriteAt implements Buffer.
func (r *Region) WriteAt(ctx store.Ctx, off int64, data []byte) error {
	if err := r.check(off, int64(len(data))); err != nil {
		return err
	}
	r.s.Writes++
	r.s.WriteBytes += int64(len(data))
	return r.c.pc.Write(ctx, r.name, off, data)
}

// Sync implements Buffer: dirty chunks reach the benefactors (msync +
// fsync semantics). The page cache writes through, so it holds nothing to
// push down first.
func (r *Region) Sync(ctx store.Ctx) error {
	if r.freed {
		return fmt.Errorf("core: sync of freed region %q", r.name)
	}
	return r.c.cc.Flush(ctx, r.name)
}

// Free implements Buffer (ssdfree): the mapping is dropped and the backing
// file deleted. Chunks still referenced by a checkpoint survive (§III-E);
// everything else is physically released. Freeing a shared mapping deletes
// the per-node file — callers coordinate, as with any shared resource.
func (r *Region) Free(ctx store.Ctx) error {
	if r.freed {
		return fmt.Errorf("core: double free of region %q", r.name)
	}
	sp, ctx := r.c.rootSpan(ctx, "client.free", r.name)
	r.freed = true
	r.c.pc.Drop(r.name)
	r.c.cc.Drop(ctx, r.name)
	err := r.c.cc.Store().Delete(ctx, r.name)
	if errors.Is(err, proto.ErrNoSuchFile) && r.shared {
		err = nil // another rank freed the shared mapping first
	}
	r.c.endRoot(ctx, sp, err)
	return err
}

// SetLifetime gives the variable a lifetime of d from now (§III-C: a
// persistent variable outliving its job is reclaimed once its lifetime
// passes — workflow data sharing without leaks); d ≤ 0 clears it. The
// reclamation is an expiry sweep (OpExpire), which runs only when something
// issues one: simstore.Store.ExpireSweep in the simulator,
// rpc.ManagerClient.Expire on the TCP store.
func (r *Region) SetLifetime(ctx store.Ctx, d time.Duration) error {
	if r.freed {
		return fmt.Errorf("core: lifetime on freed region %q", r.name)
	}
	return r.c.cc.Store().SetTTL(ctx, r.name, d)
}

// Detach drops the rank's caches for the region without deleting the
// backing file — the variable persists on the store for a later Attach
// (possibly by a different job).
func (r *Region) Detach(ctx store.Ctx) error {
	if r.freed {
		return fmt.Errorf("core: detach of freed region %q", r.name)
	}
	if err := r.Sync(ctx); err != nil {
		return err
	}
	r.freed = true
	r.c.pc.Drop(r.name)
	return nil
}

// AppStats implements Buffer.
func (r *Region) AppStats() AppStats { return r.s }
