// Package store defines the transport-neutral chunk-store interface the
// NVMalloc library (internal/core) and its caches (internal/fusecache)
// are written against. Two adapters implement it:
//
//   - internal/simstore binds it to the deterministic simulated cluster
//     (every call charges virtual network/device time), and
//   - internal/rpc binds it to the real TCP manager/benefactor daemons.
//
// The same library code — ssdmalloc, ssdfree, ssdcheckpoint, the FUSE
// chunk cache with COW remapping — therefore runs unchanged over both
// backends; only the adapter decides whether "time passes" on a virtual
// clock or a wall clock.
//
// No simtime types appear in any signature. The simulation threads its
// *simtime.Proc through the opaque Ctx value, which the TCP adapter takes
// as nil. On both, Ctx may also carry tracing span info (WithSpan) that
// the adapters stamp on the requests they send.
package store

import (
	"time"

	"nvmalloc/internal/proto"
)

// Ctx is the opaque per-call execution context. The simulated adapter
// receives the calling *simtime.Proc here; the TCP adapter takes nil.
// It is an alias (not a defined type) so sim call sites pass their Proc
// with no conversion.
type Ctx = any

// Client is the aggregate-store interface consumed by the cache and
// library layers. Chunk data ops take the full replica set of a chunk
// (primary first, as returned by ReplicaRefs); metadata ops address files
// by name.
type Client interface {
	// Node identifies the compute node this client is bound to (for
	// placement-aware stores; the TCP adapter reports a nominal node).
	Node() int
	// ChunkSize returns the store's striping unit.
	ChunkSize() int64

	// Create reserves a file of the given size (posix_fallocate analog).
	Create(ctx Ctx, name string, size int64) (proto.FileInfo, error)
	// Lookup fetches a file's chunk map from the manager.
	Lookup(ctx Ctx, name string) (proto.FileInfo, error)
	// Delete removes a file; chunks whose refcount reaches zero are
	// physically released on their benefactors.
	Delete(ctx Ctx, name string) error
	// Link appends the chunks of the part files to dst — the zero-copy
	// checkpoint merge of paper §III-E.
	Link(ctx Ctx, dst string, parts []string) (proto.FileInfo, error)
	// Derive creates a file sharing a chunk sub-range of src (checkpoint
	// restore without data movement).
	Derive(ctx Ctx, name, src string, fromChunk, nChunks int, size int64) (proto.FileInfo, error)
	// Remap performs the copy-on-write remapping of one chunk, returning
	// the fresh chunk's full replica set (primary first). When the chunk
	// was not shared the original refs come back unchanged.
	Remap(ctx Ctx, name string, chunkIdx int) ([]proto.ChunkRef, error)
	// SetTTL gives the file a lifetime of ttl from now, on the manager's
	// clock (§III-C persistent-variable lifetimes); ttl ≤ 0 clears the
	// lifetime. An expired file is reclaimed by the next expiry sweep
	// (OpExpire), which runs only when something issues one:
	// simstore.Store.ExpireSweep, rpc.ManagerClient.Expire.
	SetTTL(ctx Ctx, name string, ttl time.Duration) error

	// GetChunk fetches one chunk payload, failing over across refs.
	GetChunk(ctx Ctx, refs []proto.ChunkRef) ([]byte, error)
	// PutChunk stores a full chunk payload on every (live) replica.
	PutChunk(ctx Ctx, refs []proto.ChunkRef, data []byte) error
	// PutPages ships only the dirty pages of a chunk — the Table VII
	// write optimization — applied server-side by the benefactor.
	PutPages(ctx Ctx, refs []proto.ChunkRef, pageOffs []int64, pages [][]byte) error

	// Status fetches the benefactor table.
	Status(ctx Ctx) ([]proto.BenefactorInfo, error)
}

// BufferLender is an optional Client extension implemented by transports
// whose GetChunk results are private, pooled buffers (the TCP adapter's
// NVM1 data path leases them from a chunk-sized arena — DESIGN.md §13).
// Callers holding such a client may adopt GetChunk buffers outright —
// retain them, mutate them — and hand them back through ReleaseChunk once
// finished, closing the pool's lease/return loop.
//
// A client that does NOT implement BufferLender (or reports
// PrivateChunks() == false, like simstore, whose GetChunk aliases the
// simulated device memory) keeps the conservative contract: GetChunk
// results must be treated as shared and read-only, and callers copy.
type BufferLender interface {
	// PrivateChunks reports whether GetChunk returns caller-owned buffers.
	PrivateChunks() bool
	// ReleaseChunk returns a GetChunk buffer to the transport's pool. The
	// buffer must not be used afterwards. Buffers of foreign geometry are
	// ignored (left to the garbage collector), so releasing is always safe.
	ReleaseChunk(buf []byte)
}

// ChunkSpiller is an optional Client extension implemented by tiered
// clients backed by a node-local spill cache (internal/filecache.Tier).
// The chunk cache above hands clean evicted payloads here instead of
// discarding them, so a later miss on the same chunk is served from the
// local file tier rather than a benefactor over the wire.
//
// SpillChunk copies data before returning: the caller keeps ownership of
// the buffer and still releases lender-leased buffers through the normal
// BufferLender path afterwards. Spilling is advisory — the tier may drop
// the payload (capacity, shutdown) without telling anyone.
type ChunkSpiller interface {
	SpillChunk(ctx Ctx, refs []proto.ChunkRef, data []byte)
}

// ReplicaRefs returns every copy of chunk idx of a file, primary first.
// Metadata from an unreplicated manager carries no replica table; the
// primary ref alone is the degenerate copy set.
func ReplicaRefs(fi proto.FileInfo, idx int) []proto.ChunkRef {
	if idx < len(fi.Replicas) && len(fi.Replicas[idx]) > 0 {
		return fi.Replicas[idx]
	}
	return fi.Chunks[idx : idx+1]
}

// Env abstracts the execution substrate the cache layer runs on: mutual
// exclusion, task spawning, and blocking synchronization. The simulated
// implementation (internal/simstore) maps these onto the cooperative
// virtual-time engine, where exactly one proc runs at a time and Lock is
// a no-op; the real implementation (GoEnv) maps them onto goroutines and
// a sync.Mutex.
//
// Lock discipline: Future.Wait, Gate.Acquire, and Group.Wait block and
// MUST be called without the env lock held.
type Env interface {
	// Lock/Unlock guard the cache's shared state.
	Lock(ctx Ctx)
	Unlock(ctx Ctx)
	// Go runs fn as an asynchronous task (read-ahead, parallel flushers).
	Go(ctx Ctx, name string, fn func(Ctx))
	// NewFuture returns a one-shot completion signal.
	NewFuture(name string) Future
	// NewGate returns a counting gate admitting width concurrent holders.
	NewGate(name string, width int) Gate
	// NewGroup returns a completion group for a batch of tasks.
	NewGroup() Group
	// NowNanos reads the substrate's clock: wall time on the real Env,
	// virtual time on the simulated one. Span timing must come from here
	// so simulated traces carry simulated durations.
	NowNanos(ctx Ctx) int64
}

// Future is a one-shot completion signal: Set releases all current and
// future waiters.
type Future interface {
	Set()
	Wait(ctx Ctx)
}

// Gate bounds concurrency (the FUSE daemon's request gate).
type Gate interface {
	Acquire(ctx Ctx)
	Release(ctx Ctx)
}

// Group tracks a batch of spawned tasks to completion.
type Group interface {
	Go(ctx Ctx, name string, fn func(Ctx))
	Wait(ctx Ctx)
}
