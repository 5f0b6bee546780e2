package manager

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nvmalloc/internal/proto"
	"nvmalloc/internal/shardmap"
)

// newShard builds one shard of an n-shard plane with the usual test
// benefactors registered (every benefactor registers with every shard).
func newShard(index, count, bens int) *Manager {
	m := New(cs, RoundRobin)
	m.SetShard(index, count)
	for i := 0; i < bens; i++ {
		m.Register(proto.BenefactorInfo{ID: i, Node: i, Capacity: 64 * cs}, "", 0)
	}
	return m
}

// TestChunkIDStriding: shard i of n mints IDs congruent to i+1 mod n, so
// ownership of any chunk is computable from the ID and two shards can
// never collide. The unsharded plane keeps the historical 1,2,3,...
func TestChunkIDStriding(t *testing.T) {
	m0 := newShard(0, 2, 2)
	m1 := newShard(1, 2, 2)
	f0, err := m0.Create("a", 3*cs)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := m1.Create("b", 3*cs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range f0.Chunks {
		want := proto.ChunkID(1 + 2*i)
		if r.ID != want {
			t.Fatalf("shard 0 chunk %d has ID %d, want %d", i, r.ID, want)
		}
		if !m0.Owns(r.ID) || m1.Owns(r.ID) {
			t.Fatalf("ownership of ID %d misattributed", r.ID)
		}
	}
	for i, r := range f1.Chunks {
		want := proto.ChunkID(2 + 2*i)
		if r.ID != want {
			t.Fatalf("shard 1 chunk %d has ID %d, want %d", i, r.ID, want)
		}
		if !m1.Owns(r.ID) || m0.Owns(r.ID) {
			t.Fatalf("ownership of ID %d misattributed", r.ID)
		}
	}
	// Unsharded: legacy sequence.
	mu := newMgr(RoundRobin, 1)
	fu, _ := mu.Create("c", 2*cs)
	if fu.Chunks[0].ID != 1 || fu.Chunks[1].ID != 2 {
		t.Fatalf("unsharded IDs = %v, want 1,2", fu.Chunks)
	}
}

// TestEpochBumps: the membership epoch starts at 1 and bumps on every
// registration, sweep death, mark-dead, and fenced rejoin — and on nothing
// else (heartbeats and file ops leave it alone).
func TestEpochBumps(t *testing.T) {
	m := New(cs, RoundRobin)
	if m.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", m.Epoch())
	}
	m.Register(proto.BenefactorInfo{ID: 0, Capacity: 64 * cs}, "", 0)
	if m.Epoch() != 2 {
		t.Fatalf("epoch after register = %d, want 2", m.Epoch())
	}
	m.Heartbeat(0, 0, time.Second)
	if _, err := m.Create("f", cs); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 2 {
		t.Fatalf("heartbeat/create moved the epoch to %d", m.Epoch())
	}
	m.MarkDead(0)
	if m.Epoch() != 3 {
		t.Fatalf("epoch after markdead = %d, want 3", m.Epoch())
	}
	m.MarkDead(0) // already dead: no membership change
	if m.Epoch() != 3 {
		t.Fatalf("double markdead bumped epoch to %d", m.Epoch())
	}
	if wasDead := m.Register(proto.BenefactorInfo{ID: 0, Capacity: 64 * cs}, "", 2*time.Second); !wasDead {
		t.Fatal("rejoin should report wasDead")
	}
	if m.Epoch() != 4 {
		t.Fatalf("epoch after rejoin = %d, want 4", m.Epoch())
	}
}

// TestRegisterPreservesAccounting: re-registration must not zero the
// manager-side Used counter — the benefactor does not know what the
// manager reserved on it, and claims survive a bounce.
func TestRegisterPreservesAccounting(t *testing.T) {
	m := newMgr(RoundRobin, 1)
	if _, err := m.Create("f", 4*cs); err != nil {
		t.Fatal(err)
	}
	used := m.Status()[0].Used
	if used != 4*cs {
		t.Fatalf("used = %d, want %d", used, 4*cs)
	}
	m.Register(proto.BenefactorInfo{ID: 0, Capacity: 64 * cs}, "", time.Second)
	if got := m.Status()[0].Used; got != used {
		t.Fatalf("re-register reset used to %d, want %d", got, used)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFenceRejoin is the §9 regression: a dead benefactor's copies that
// have live survivors are dropped on rejoin (the survivors may have taken
// writes it missed), its primaries are handed to a live replica with every
// file entry rewritten, and sole copies are spared.
func TestFenceRejoin(t *testing.T) {
	m := New(cs, RoundRobin)
	m.Replication = 2
	for i := 0; i < 3; i++ {
		m.Register(proto.BenefactorInfo{ID: i, Node: i, Capacity: 64 * cs}, "", 0)
	}
	fi, err := m.Create("f", 2*cs)
	if err != nil {
		t.Fatal(err)
	}
	victim := fi.Chunks[0].Benefactor

	// One unreplicated chunk on the victim before it dies: its sole copy
	// must survive the fence (replication=1 safety).
	m.Replication = 1
	var sole proto.ChunkRef
	for {
		solo, err := m.Create("solo", cs)
		if err != nil {
			t.Fatal(err)
		}
		if solo.Chunks[0].Benefactor == victim {
			sole = solo.Chunks[0]
			break
		}
		if _, err := m.Delete("solo"); err != nil {
			t.Fatal(err)
		}
	}
	m.Replication = 2
	m.MarkDead(victim)

	epoch := m.Epoch()
	dropped := m.FenceRejoin(victim)
	for _, r := range dropped {
		if r.Benefactor != victim {
			t.Fatalf("fence dropped a copy on benefactor %d", r.Benefactor)
		}
		if r.ID == sole.ID {
			t.Fatalf("fence dropped the sole copy of chunk %d", r.ID)
		}
	}
	if len(dropped) == 0 {
		t.Fatal("fence dropped nothing despite live survivors")
	}
	if m.Epoch() == epoch {
		t.Fatal("fence must bump the epoch")
	}
	// No file entry may point at the victim for a fenced chunk, and the
	// metadata must stay consistent.
	fi2, err := m.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range fi2.Chunks {
		if r.Benefactor == victim {
			t.Fatalf("file chunk %d still routed to fenced benefactor %d", i, victim)
		}
		for _, rep := range fi2.Replicas[i] {
			if rep.Benefactor == victim {
				t.Fatalf("replica set of chunk %d still lists fenced benefactor", i)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second fence finds nothing.
	if again := m.FenceRejoin(victim); len(again) != 0 {
		t.Fatalf("second fence dropped %v", again)
	}
}

// TestCrossShardLinkDeriveRemapDelete walks the full client-orchestrated
// protocol against two real Manager instances: export from the source
// shard, retain at the owner, link into the destination, copy-on-write a
// foreign chunk, and release everything back to zero.
func TestCrossShardLinkDeriveRemapDelete(t *testing.T) {
	src := newShard(0, 2, 2) // owns "v" and its chunks
	dst := newShard(1, 2, 2) // will hold the checkpoint

	v, err := src.Create("v", 2*cs)
	if err != nil {
		t.Fatal(err)
	}
	// Destination-side checkpoint derives v's chunks (cross-shard Derive =
	// LinkRefs with create).
	exp, err := src.ExportRange("v", 0, len(v.Chunks))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Size != 2*cs {
		t.Fatalf("export size = %d, want %d", exp.Size, 2*cs)
	}
	var ids []proto.ChunkID
	for _, r := range exp.Chunks {
		ids = append(ids, r.ID)
	}
	if err := src.RetainRefs(ids); err != nil {
		t.Fatal(err)
	}
	ck, err := dst.LinkRefs("ckpt", exp.Chunks, exp.Replicas, exp.Size, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Chunks) != 2 || ck.Size != 2*cs {
		t.Fatalf("ckpt = %+v", ck)
	}
	// Lookup on dst must ship failover replica sets for the foreign chunks.
	for i := range ck.Chunks {
		if len(ck.Replicas[i]) == 0 {
			t.Fatalf("ckpt chunk %d has no replica set", i)
		}
	}
	for _, id := range ids {
		if src.Refcount(id) != 2 || src.RemoteHolds(id) != 1 {
			t.Fatalf("chunk %d: refs=%d remote=%d, want 2/1", id, src.Refcount(id), src.RemoteHolds(id))
		}
		if dst.ForeignRefs(id) != 1 {
			t.Fatalf("dst foreign refs for %d = %d, want 1", id, dst.ForeignRefs(id))
		}
	}
	if err := CheckCluster([]*Manager{src, dst}); err != nil {
		t.Fatal(err)
	}

	// A same-shard link of the checkpoint is a lookup plus LinkRefs, as
	// the client runs it: it takes a second foreign reference on each
	// chunk, matched by a second hold the client retains at the owner.
	if _, err := dst.Create("merge", 0); err != nil {
		t.Fatal(err)
	}
	look, err := dst.Lookup("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.LinkRefs("merge", look.Chunks, look.Replicas, look.Size, false); err != nil {
		t.Fatal(err)
	}
	var heldIDs []proto.ChunkID
	for _, r := range look.Chunks {
		if !dst.Owns(r.ID) {
			heldIDs = append(heldIDs, r.ID)
		}
	}
	if len(heldIDs) != 2 {
		t.Fatalf("link took %d foreign references, want 2", len(heldIDs))
	}
	if err := src.RetainRefs(heldIDs); err != nil {
		t.Fatal(err)
	}
	for _, id := range heldIDs {
		if dst.ForeignRefs(id) != 2 || src.RemoteHolds(id) != 2 || src.Refcount(id) != 3 {
			t.Fatalf("chunk %d: dst foreign=%d src remote=%d refs=%d, want 2/2/3",
				id, dst.ForeignRefs(id), src.RemoteHolds(id), src.Refcount(id))
		}
	}
	if err := CheckCluster([]*Manager{src, dst}); err != nil {
		t.Fatal(err)
	}

	// Copy-on-write of a foreign chunk: always shared, copies onto a
	// locally-owned chunk, and the foreign reference comes back to free.
	old, fresh, shared, foreignFreed, err := remapNow(dst, "merge", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !shared || len(foreignFreed) != 1 || foreignFreed[0] != old {
		t.Fatalf("remap: shared=%v foreignFreed=%v old=%v", shared, foreignFreed, old)
	}
	if !dst.Owns(fresh.ID) {
		t.Fatalf("remap allocated foreign-owned ID %d", fresh.ID)
	}
	if freed := src.ReleaseRefs([]proto.ChunkID{old.ID}); len(freed) != 0 {
		t.Fatalf("release freed %v while file refs remain", freed)
	}
	if src.Refcount(old.ID) != 2 {
		t.Fatalf("chunk %d refs = %d after one release, want 2", old.ID, src.Refcount(old.ID))
	}
	if err := CheckCluster([]*Manager{src, dst}); err != nil {
		t.Fatal(err)
	}

	// Tear down: deleting the dst files returns the foreign refs; releasing
	// them at the source, then deleting the source file, frees everything.
	for _, name := range []string{"merge", "ckpt"} {
		_, ff, err := dst.DeleteFull(name)
		if err != nil {
			t.Fatal(err)
		}
		var rel []proto.ChunkID
		for _, r := range ff {
			rel = append(rel, r.ID)
		}
		src.ReleaseRefs(rel)
	}
	if _, err := src.Delete("v"); err != nil {
		t.Fatal(err)
	}
	if src.TotalChunks() != 0 {
		t.Fatalf("src still holds %d chunks", src.TotalChunks())
	}
	if dst.TotalChunks() != 0 { // remap's fresh chunk died with "merge"
		t.Fatalf("dst still holds %d chunks", dst.TotalChunks())
	}
	if err := CheckCluster([]*Manager{src, dst}); err != nil {
		t.Fatal(err)
	}
}

// nameOn returns the first prefix-numbered name that routes to shard i of n.
func nameOn(t *testing.T, prefix string, i, n int) string {
	t.Helper()
	for k := 0; k < 100000; k++ {
		if name := fmt.Sprintf("%s%d", prefix, k); shardmap.ShardFor(name, n) == i {
			return name
		}
	}
	t.Fatalf("no %q-prefixed name routes to shard %d/%d", prefix, i, n)
	return ""
}

// TestRetainRefsAtomic: retain validates every chunk before bumping any,
// so an aborted cross-shard link never leaves partial holds.
func TestRetainRefsAtomic(t *testing.T) {
	m := newShard(0, 2, 1)
	fi, err := m.Create("v", cs)
	if err != nil {
		t.Fatal(err)
	}
	id := fi.Chunks[0].ID
	err = m.RetainRefs([]proto.ChunkID{id, 9999})
	if !errors.Is(err, proto.ErrNoSuchChunk) {
		t.Fatalf("retain of unknown chunk = %v, want ErrNoSuchChunk", err)
	}
	if m.Refcount(id) != 1 || m.RemoteHolds(id) != 0 {
		t.Fatalf("failed retain leaked holds: refs=%d remote=%d", m.Refcount(id), m.RemoteHolds(id))
	}
	// Release tolerates replays and unknown IDs without corrupting state.
	if freed := m.ReleaseRefs([]proto.ChunkID{id, 9999}); len(freed) != 0 {
		t.Fatalf("bogus release freed %v", freed)
	}
	if m.Refcount(id) != 1 {
		t.Fatalf("bogus release changed refs to %d", m.Refcount(id))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
