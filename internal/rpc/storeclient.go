package rpc

import (
	"time"

	"nvmalloc/internal/proto"
	"nvmalloc/internal/store"
)

// StoreClient adapts a *Store to the transport-neutral store.Client
// interface, so the shared FUSE-layer chunk cache (internal/fusecache) and
// the core library (internal/core) run unchanged over live TCP daemons.
// It is the real-path twin of simstore.Client.
//
// The execution context carries no simulated time on this path, but it may
// carry tracing span info (store.WithSpan): every call extracts it and
// threads it down, so server-side spans nest under the caller's. All
// methods are safe for concurrent use (the underlying Store is).
type StoreClient struct {
	st   *Store
	node int
}

var (
	_ store.Client       = (*StoreClient)(nil)
	_ store.BufferLender = (*StoreClient)(nil)
)

// NewStoreClient wraps st as a store.Client. node is the logical cluster
// node the client claims to run on (informational; pass 0 for a
// single-host deployment).
func NewStoreClient(st *Store, node int) *StoreClient {
	return &StoreClient{st: st, node: node}
}

// Store exposes the underlying TCP data-path client.
func (c *StoreClient) Store() *Store { return c.st }

// Node implements store.Client.
func (c *StoreClient) Node() int { return c.node }

// ChunkSize implements store.Client.
func (c *StoreClient) ChunkSize() int64 { return c.st.ChunkSize() }

// Create implements store.Client.
func (c *StoreClient) Create(ctx store.Ctx, name string, size int64) (proto.FileInfo, error) {
	return c.st.create(store.SpanOf(ctx), name, size)
}

// Lookup implements store.Client. It always consults the manager — another
// client may have remapped chunks since the last view.
func (c *StoreClient) Lookup(ctx store.Ctx, name string) (proto.FileInfo, error) {
	return c.st.stat(store.SpanOf(ctx), name)
}

// Delete implements store.Client.
func (c *StoreClient) Delete(ctx store.Ctx, name string) error {
	return c.st.deleteFile(store.SpanOf(ctx), name)
}

// Link implements store.Client.
func (c *StoreClient) Link(ctx store.Ctx, dst string, parts []string) (proto.FileInfo, error) {
	return c.st.link(store.SpanOf(ctx), dst, parts)
}

// Derive implements store.Client.
func (c *StoreClient) Derive(ctx store.Ctx, name, src string, fromChunk, nChunks int, size int64) (proto.FileInfo, error) {
	return c.st.derive(store.SpanOf(ctx), name, src, fromChunk, nChunks, size)
}

// Remap implements store.Client.
func (c *StoreClient) Remap(ctx store.Ctx, name string, chunkIdx int) ([]proto.ChunkRef, error) {
	return c.st.remap(store.SpanOf(ctx), name, chunkIdx)
}

// SetTTL implements store.Client.
func (c *StoreClient) SetTTL(_ store.Ctx, name string, ttl time.Duration) error {
	return c.st.SetTTL(name, ttl)
}

// GetChunk implements store.Client: it fetches one chunk payload, failing
// over across the given replicas. The result is a private buffer the
// caller owns (see PrivateChunks) — hand it back via ReleaseChunk when
// done to keep the data path allocation-free.
func (c *StoreClient) GetChunk(ctx store.Ctx, refs []proto.ChunkRef) ([]byte, error) {
	return c.st.getChunk(store.SpanOf(ctx), refs)
}

// PrivateChunks implements store.BufferLender: the TCP data path's GetChunk
// results are arena leases, owned by the caller — unlike simstore, whose
// results alias simulated device memory.
func (c *StoreClient) PrivateChunks() bool { return true }

// ReleaseChunk implements store.BufferLender: a finished GetChunk buffer
// returns to the store's arena.
func (c *StoreClient) ReleaseChunk(buf []byte) { c.st.ReleaseChunk(buf) }

// PutChunk implements store.Client: it ships one whole chunk payload to
// every live replica.
func (c *StoreClient) PutChunk(ctx store.Ctx, refs []proto.ChunkRef, data []byte) error {
	return c.st.putChunk(store.SpanOf(ctx), refs, data)
}

// PutPages implements store.Client: it ships only the dirty pages of a
// chunk (paper Table VII).
func (c *StoreClient) PutPages(ctx store.Ctx, refs []proto.ChunkRef, pageOffs []int64, pages [][]byte) error {
	return c.st.putPages(store.SpanOf(ctx), refs, pageOffs, pages)
}

// Status implements store.Client: the benefactor table merged across every
// reachable manager shard.
func (c *StoreClient) Status(_ store.Ctx) ([]proto.BenefactorInfo, error) {
	return c.st.Status()
}
