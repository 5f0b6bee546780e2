// Package router is the metadata client of the aggregate store, written
// once for both substrates. It implements the name-addressed metadata half
// of store.Client — Create, Lookup, Delete, Link, Derive, Remap, SetTTL —
// over a Conn that carries one proto.ManagerReq to one manager shard:
// internal/rpc supplies gob connections to live manager daemons,
// internal/simstore its in-process manager with every round trip charged in
// virtual time.
//
// The router owns the shard map's arithmetic (the shard a name routes to,
// the shard that minted a chunk) and the client-orchestrated link protocol
// of DESIGN.md §16: export → retain → link, with the holds released if the
// destination refuses the link, for Link and Derive at every shard count,
// and the release of the foreign holds a Delete or Remap sheds. At one
// shard every chunk is the destination's own, so the retain sends nothing.
// Membership epochs and the stale-map retry are the Conn's business, not
// the router's.
package router

import (
	"fmt"
	"time"

	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/shardmap"
	"nvmalloc/internal/store"
)

// Conn carries metadata requests to the manager shards of one store.
type Conn interface {
	// Shards returns the number of manager shards the store has now.
	Shards() int
	// ChunkSize returns the store's striping unit.
	ChunkSize() int64
	// Call sends req to shard and returns the reply. A shard that answers
	// with a refusal returns the reply, Err set, and its wire error as the
	// error (proto.WireErr); any other error is a transport failure, after
	// which the request may or may not have been applied, and the reply's
	// Err is empty. ctx is the caller's store.Ctx, passed through untouched.
	Call(ctx store.Ctx, shard int, req proto.ManagerReq) (proto.ManagerResp, error)
}

// Router implements store.Client's metadata methods over a Conn. It holds
// no state of its own, so one value may be copied and used concurrently
// whenever its Conn may.
type Router struct {
	conn Conn
}

// New returns a router over conn.
func New(conn Conn) Router { return Router{conn: conn} }

// call sends req to shard, stamped with the trace and parent span ctx
// carries, so the manager's spans nest under the caller's.
func (r Router) call(ctx store.Ctx, shard int, req proto.ManagerReq) (proto.ManagerResp, error) {
	sc := store.SpanOf(ctx)
	req.TraceID, req.ParentSpanID = sc.Trace, sc.Parent
	return r.conn.Call(ctx, shard, req)
}

// routed sends a name-addressed request to the shard owning req.Name.
func (r Router) routed(ctx store.Ctx, req proto.ManagerReq) (proto.ManagerResp, error) {
	return r.call(ctx, r.shardFor(req.Name), req)
}

// shardFor returns the shard owning a file name.
func (r Router) shardFor(name string) int {
	return shardmap.ShardFor(name, r.conn.Shards())
}

// ownerOf returns the shard that minted (and owns) a chunk: shard i mints
// IDs congruent to i+1 modulo the shard count.
func (r Router) ownerOf(id proto.ChunkID) int {
	n := r.conn.Shards()
	if n <= 1 {
		return 0
	}
	return int((uint64(id) - 1) % uint64(n))
}

// Create implements store.Client.
func (r Router) Create(ctx store.Ctx, name string, size int64) (proto.FileInfo, error) {
	resp, err := r.routed(ctx, proto.ManagerReq{Op: proto.OpCreate, Name: name, Size: size})
	return resp.File, err
}

// Lookup implements store.Client. It always consults the manager: another
// client may have remapped chunks since the caller's last view.
func (r Router) Lookup(ctx store.Ctx, name string) (proto.FileInfo, error) {
	resp, err := r.routed(ctx, proto.ManagerReq{Op: proto.OpLookup, Name: name})
	return resp.File, err
}

// Delete implements store.Client.
func (r Router) Delete(ctx store.Ctx, name string) error {
	resp, err := r.routed(ctx, proto.ManagerReq{Op: proto.OpDelete, Name: name})
	if err == nil {
		// The file may have referenced chunks owned by other shards (from a
		// cross-shard link or derive); drop the matching holds at the owners.
		r.releaseRemote(ctx, resp.ForeignFreed)
	}
	return err
}

// Link implements store.Client. The destination and the parts may live on
// different manager shards, and the parts' chunks on yet others. The
// client orchestrates — shards never talk to each other (§16):
//
//  1. look each part up at its owning shard (fresh refs, replica sets,
//     sizes);
//  2. take one remote hold per chunk not owned by the destination shard at
//     the chunk's owner (OpRetainRefs — all-or-nothing per owner, rolled
//     back on failure, so an abort leaves no stray holds);
//  3. append the explicit ref list, laid out by manager.LayoutParts, to
//     dst at its shard (OpLinkRefs); if the shard refuses, the holds from
//     step 2 are released.
//
// Holds are taken BEFORE the destination commits, so a crash mid-protocol
// strands at worst surplus holds (leaked space, reclaimed by releasing),
// never a file referencing chunks its owners feel free to delete. The
// steps are separate requests: a part deleted after its lookup fails the
// retain or the link with ErrNoSuchChunk, since chunk IDs are never reused.
func (r Router) Link(ctx store.Ctx, dst string, parts []string) (proto.FileInfo, error) {
	infos := make([]proto.FileInfo, len(parts))
	for i, p := range parts {
		look, err := r.routed(ctx, proto.ManagerReq{Op: proto.OpLookup, Name: p})
		if err != nil {
			return proto.FileInfo{}, fmt.Errorf("link part %q: %w", p, err)
		}
		infos[i] = look.File
	}
	refs, reps, size := manager.LayoutParts(infos, r.conn.ChunkSize())
	return r.linkRefs(ctx, proto.ManagerReq{
		Op: proto.OpLinkRefs, Name: dst, Refs: refs, RefReplicas: reps, Size: size,
	})
}

// linkRefs retains req.Refs at their owners on behalf of req.Name's shard,
// then sends req, the OpLinkRefs that commits them there. A refusal from
// the destination shard applied nothing, so the holds are released. After
// a transport failure the link may have committed with its reply lost, and
// then the destination references the held chunks: the holds stay, a
// stranded hold at worst (leaked space, §16) where a release could leave a
// reference to a freed chunk.
func (r Router) linkRefs(ctx store.Ctx, req proto.ManagerReq) (proto.FileInfo, error) {
	held, err := r.retainRemote(ctx, r.shardFor(req.Name), req.Refs)
	if err != nil {
		return proto.FileInfo{}, err
	}
	resp, err := r.routed(ctx, req)
	if err != nil {
		if resp.Err != "" {
			r.releaseRemote(ctx, held)
		}
		return proto.FileInfo{}, err
	}
	return resp.File, nil
}

// Derive implements store.Client (checkpoint restore): the new file and
// its source may hash to different shards. Like Link, the client exports
// the chunk sub-range from the source's shard (OpExportRange — read-only,
// holds nothing), retains the refs at their owners, then creates the new
// file from the explicit ref list at its own shard (OpLinkRefs with
// CreateDst). The source is checked before the new name, so a derive onto
// an existing name from a missing source reports the missing source. A
// racing delete between export and link fails the retain or the link with
// ErrNoSuchChunk and the derive aborts cleanly.
func (r Router) Derive(ctx store.Ctx, name, src string, fromChunk, nChunks int, size int64) (proto.FileInfo, error) {
	ex, err := r.routed(ctx, proto.ManagerReq{
		Op: proto.OpExportRange, Name: src, FromChunk: fromChunk, NChunks: nChunks,
	})
	if err != nil {
		return proto.FileInfo{}, err
	}
	return r.linkRefs(ctx, proto.ManagerReq{
		Op: proto.OpLinkRefs, Name: name, Refs: ex.File.Chunks, RefReplicas: ex.File.Replicas, Size: size, CreateDst: true,
	})
}

// Remap implements store.Client: it allocates a fresh chunk for chunk
// chunkIdx of a file (the manager copies the payload when the chunk is
// shared) and returns the fresh replica set, primary first. A caller
// holding the file's chunk map patches it with the result (the chunk cache
// does, in writeback).
func (r Router) Remap(ctx store.Ctx, name string, chunkIdx int) ([]proto.ChunkRef, error) {
	resp, err := r.routed(ctx, proto.ManagerReq{Op: proto.OpRemap, Name: name, ChunkIdx: chunkIdx})
	if err != nil {
		return nil, err
	}
	// A remap of a foreign-owned chunk copied onto a locally-owned one and
	// shed the foreign reference; drop the matching hold at the owner.
	r.releaseRemote(ctx, resp.ForeignFreed)
	return resp.NewRefs, nil
}

// SetTTL implements store.Client: the lifetime runs on the owning shard's
// clock from the moment it applies the request, and ttl ≤ 0 clears it.
func (r Router) SetTTL(ctx store.Ctx, name string, ttl time.Duration) error {
	_, err := r.routed(ctx, proto.ManagerReq{Op: proto.OpSetTTL, Name: name, TTLNanos: int64(ttl)})
	return err
}

// retainRemote groups refs by owning shard and takes one remote hold per
// ref at each owner, skipping refs dstShard owns (the destination bumps
// those locally as part of OpLinkRefs). On failure every hold already
// taken is rolled back. Returns the refs actually held, for a later
// releaseRemote by the caller's abort path.
func (r Router) retainRemote(ctx store.Ctx, dstShard int, refs []proto.ChunkRef) ([]proto.ChunkRef, error) {
	var held []proto.ChunkRef
	byOwner := make(map[int][]proto.ChunkID)
	var order []int // deterministic call order
	for _, ref := range refs {
		o := r.ownerOf(ref.ID)
		if o == dstShard {
			continue
		}
		if _, ok := byOwner[o]; !ok {
			order = append(order, o)
		}
		byOwner[o] = append(byOwner[o], ref.ID)
		held = append(held, ref)
	}
	for idx, o := range order {
		if _, err := r.call(ctx, o, proto.ManagerReq{Op: proto.OpRetainRefs, IDs: byOwner[o]}); err != nil {
			for _, prev := range order[:idx] {
				r.releaseAt(ctx, prev, byOwner[prev])
			}
			return nil, fmt.Errorf("retain refs at shard %d: %w", o, err)
		}
	}
	return held, nil
}

// releaseRemote drops remote holds at their owning shards. Best effort:
// the op that shed them has already committed, so an unreachable owner
// costs leaked holds (space, never correctness).
func (r Router) releaseRemote(ctx store.Ctx, refs []proto.ChunkRef) {
	if len(refs) == 0 {
		return
	}
	byOwner := make(map[int][]proto.ChunkID)
	var order []int
	for _, ref := range refs {
		o := r.ownerOf(ref.ID)
		if _, ok := byOwner[o]; !ok {
			order = append(order, o)
		}
		byOwner[o] = append(byOwner[o], ref.ID)
	}
	for _, o := range order {
		r.releaseAt(ctx, o, byOwner[o])
	}
}

// releaseAt drops remote holds at one owning shard. Best effort: the error
// is dropped here, and a Conn that can report the leak does (rpc emits an
// rpc.release-failed event).
func (r Router) releaseAt(ctx store.Ctx, owner int, ids []proto.ChunkID) {
	_, _ = r.call(ctx, owner, proto.ManagerReq{Op: proto.OpReleaseRefs, IDs: ids})
}
