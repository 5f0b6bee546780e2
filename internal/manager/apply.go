package manager

import (
	"errors"
	"fmt"
	"time"

	"nvmalloc/internal/proto"
	"nvmalloc/internal/shardmap"
)

// remapRounds bounds how often one OpRemap begins again after losing its
// commit race. Each lost race is someone else's progress, so a few rounds
// bound a pathological tie without starving anyone.
const remapRounds = 3

// Copy is a payload copy a transition leaves to its driver: Src's payload
// written onto every entry of Dsts.
type Copy struct {
	Src  proto.ChunkRef
	Dsts []proto.ChunkRef
}

// Batch is one benefactor's share of the chunks a request freed: the driver
// deletes them with a single request naming every ID.
type Batch struct {
	Ben int
	IDs []proto.ChunkID
}

// Effects is the I/O a transition leaves to its driver. It is data: Apply
// and Commit only decide, the driver runs it with its lock released.
type Effects struct {
	// Copies are payload copies to run before the request can finish. The
	// driver reports their outcome through Commit, which may return
	// further copies.
	Copies []Copy
	// Deletes are the chunks the request freed, one batch per benefactor
	// in registration order, accumulated across Commit rounds. The driver
	// runs them after the last Commit.
	Deletes []Batch

	remap  PendingRemap // OpRemap's in-flight round; zero for OpRepair
	rounds int          // OpRemap rounds begun
}

// Apply runs one metadata request against the manager at time now and
// returns its response and the effects left to the driver. It does no I/O.
// Both transports drive it the same way: Apply under their lock; while
// Effects.Copies is non-empty, unlock, run the copies, relock and Commit;
// then unlock and run Effects.Deletes before replying. A request whose
// view of this shard is stale is fenced with ErrStaleShardMap.
func (m *Manager) Apply(req *proto.ManagerReq, now time.Duration) (resp proto.ManagerResp, fx Effects) {
	if m.stale(req) {
		resp.Err = proto.ErrStaleShardMap.Error()
		return resp, fx
	}
	var freed []proto.ChunkRef
	var err error
	switch req.Op {
	case proto.OpRegister:
		info := proto.BenefactorInfo{ID: req.BenID, Node: req.BenNode, Capacity: req.Capacity,
			DebugAddr: req.BenDebugAddr, WriteVolume: req.WriteVolume}
		if m.Register(info, req.BenAddr, now) {
			// A rejoin after a declared death: the rejoiner deletes the
			// fenced copies (its survivors may have taken writes it missed)
			// before it serves reads.
			resp.FenceChunks = m.FenceRejoin(req.BenID)
		}
	case proto.OpBeat:
		err = m.Heartbeat(req.BenID, req.WriteVolume, now)
	case proto.OpCreate:
		resp.File, err = m.Create(req.Name, req.Size)
	case proto.OpLookup:
		resp.File, err = m.Lookup(req.Name)
	case proto.OpDelete:
		freed, resp.ForeignFreed, err = m.DeleteFull(req.Name)
	case proto.OpSetTTL:
		var deadline time.Duration // zero clears the lifetime
		if req.TTLNanos > 0 {
			deadline = now + time.Duration(req.TTLNanos)
		}
		err = m.SetTTL(req.Name, deadline)
	case proto.OpExpire:
		resp.Expired, freed, resp.ForeignFreed = m.ExpireSweep(now)
	case proto.OpRemap:
		err = m.beginRemap(req.Name, req.ChunkIdx, &resp, &fx)
	case proto.OpStatus:
		resp.Bens = m.Status()
		for i := range resp.Bens {
			if age, ok := m.BeatAge(resp.Bens[i].ID, now); ok {
				resp.Bens[i].BeatAgeNanos = int64(age)
			}
		}
		resp.ChunkSize = m.chunkSize
		resp.UnderReplicated = m.UnderReplicatedCount()
	case proto.OpMarkDead:
		m.MarkDead(req.BenID)
	case proto.OpRepair:
		fx.Copies, resp.Lost = m.repair()
	case proto.OpReportSpans:
		// Transport-only: the driver keeps the spans.
	case proto.OpExportRange:
		resp.File, err = m.ExportRange(req.Name, req.FromChunk, req.NChunks)
	case proto.OpRetainRefs:
		err = m.RetainRefs(req.IDs)
	case proto.OpLinkRefs:
		resp.File, err = m.LinkRefs(req.Name, req.Refs, req.RefReplicas, req.Size, req.CreateDst)
	case proto.OpReleaseRefs:
		freed = m.ReleaseRefs(req.IDs)
	default:
		err = fmt.Errorf("manager: unknown op %q", req.Op)
	}
	resp.Err = proto.ErrString(err)
	m.free(&fx, freed)
	return resp, fx
}

// Commit settles the copies of fx: errs holds one error per destination of
// each of fx.Copies, in order (nil = copied). It returns the effects still
// to run — every delete so far, and further copies when a remap lost its
// commit race and began again.
func (m *Manager) Commit(resp *proto.ManagerResp, fx Effects, errs [][]error) Effects {
	next := Effects{rounds: fx.rounds, Deletes: fx.Deletes}
	var freed []proto.ChunkRef
	if fx.remap.Shared() {
		freed = m.commitRemap(resp, fx.remap, errs[0], &next)
	} else { // OpRepair, the only other op that leaves copies
		freed = m.commitRepair(resp, fx.Copies, errs)
	}
	m.free(&next, freed)
	return next
}

// beginRemap runs one round of an OpRemap (RemapBegin). An unshared chunk
// is answered at once — write in place. A shared one leaves the copy of
// its payload onto the reserved fresh set in fx, and resp.NewRefs holds
// that set until the commit settles it. The caller records the returned
// error in resp.
func (m *Manager) beginRemap(name string, idx int, resp *proto.ManagerResp, fx *Effects) error {
	fx.rounds++
	t, err := m.RemapBegin(name, idx)
	if err != nil {
		return err
	}
	if !t.Shared() {
		resp.OldRef, resp.NewRefs = t.Old, m.Replicas(t.Old.ID)
		return nil
	}
	resp.OldRef, resp.NewRefs = t.Old, t.Fresh
	fx.remap = t
	fx.Copies = []Copy{{Src: t.Old, Dsts: t.Fresh}}
	return nil
}

// commitRemap commits a remap round whose copies reported errs, one per
// fresh copy. The primary copy decides the remap (RemapCommit rolls back
// without it); a failed replica copy only drops that replica, and repair
// restores redundancy later. A lost race begins a new round into next,
// up to remapRounds; it outranks a copy error, because a foreign old chunk
// cannot be pinned, so the copy may have failed because a racing remap's
// commit let the owning shard free it.
func (m *Manager) commitRemap(resp *proto.ManagerResp, t PendingRemap, errs []error, next *Effects) (freed []proto.ChunkRef) {
	var copied []proto.ChunkRef
	for j, dst := range t.Fresh {
		if errs[j] == nil {
			copied = append(copied, dst)
		}
	}
	var err error
	resp.NewRefs, freed, resp.ForeignFreed, err = m.RemapCommit(t, copied)
	raced := errors.Is(err, ErrRemapRaced)
	switch {
	case raced && next.rounds < remapRounds:
		err = m.beginRemap(t.Name, t.ChunkIdx, resp, next)
	case errs[0] != nil && !raced:
		err = errs[0]
	}
	resp.Err = proto.ErrString(err)
	return freed
}

// free adds freed chunks to fx's delete batches: one per benefactor, in
// registration order, each benefactor's IDs in the order they were freed.
func (m *Manager) free(fx *Effects, freed []proto.ChunkRef) {
	if len(freed) == 0 {
		return
	}
	ids := make(map[int][]proto.ChunkID, len(fx.Deletes)+len(freed))
	for _, b := range fx.Deletes {
		ids[b.Ben] = b.IDs
	}
	for _, r := range freed {
		ids[r.Benefactor] = append(ids[r.Benefactor], r.ID)
	}
	fx.Deletes = make([]Batch, 0, len(ids))
	for _, ben := range m.benOrder {
		if batch, ok := ids[ben]; ok {
			fx.Deletes = append(fx.Deletes, Batch{Ben: ben, IDs: batch})
		}
	}
}

// stale reports whether a request's view of this shard is stale: a
// mismatched membership epoch (MapEpoch 0 is unstamped — first contact,
// benefactor and admin traffic — and never fenced), or a name-routed op —
// one whose Name shardmap.ShardFor routes — for a name this shard does not
// own, which must be fenced rather than answered with a misleading
// ErrNoSuchFile.
func (m *Manager) stale(req *proto.ManagerReq) bool {
	if req.MapEpoch != 0 && req.MapEpoch != m.epoch {
		return true
	}
	switch req.Op {
	case proto.OpCreate, proto.OpLookup, proto.OpDelete, proto.OpSetTTL,
		proto.OpRemap, proto.OpExportRange, proto.OpLinkRefs:
		return m.shardCount > 1 && shardmap.ShardFor(req.Name, m.shardCount) != m.shardIndex
	}
	return false
}
