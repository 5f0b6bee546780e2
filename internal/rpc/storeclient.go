package rpc

import (
	"nvmalloc/internal/proto"
	"nvmalloc/internal/router"
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
	// Router supplies the metadata methods (Create, Lookup, Delete, Link,
	// Derive, Remap, SetTTL), routed over the Store's shards.
	router.Router
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
	return &StoreClient{Router: st.meta, st: st, node: node}
}

// Store exposes the underlying TCP data-path client.
func (c *StoreClient) Store() *Store { return c.st }

// Node implements store.Client.
func (c *StoreClient) Node() int { return c.node }

// ChunkSize implements store.Client.
func (c *StoreClient) ChunkSize() int64 { return c.st.ChunkSize() }

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
