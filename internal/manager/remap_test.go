package manager

import (
	"errors"
	"reflect"
	"testing"

	"nvmalloc/internal/proto"
)

// Deterministic interleavings of the two-phase copy-on-write remap
// (DESIGN.md §9): every step between RemapBegin and RemapCommit/RemapAbort
// that another client can take, with CheckInvariants after each — pins
// included, so the in-flight state itself is checked, not just the ends.

func check(t *testing.T, ms ...*Manager) {
	t.Helper()
	for _, m := range ms {
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// copied is the outcome of fx's copies when every one lands.
func copied(fx Effects) [][]error {
	errs := make([][]error, len(fx.Copies))
	for i, cp := range fx.Copies {
		errs[i] = make([]error, len(cp.Dsts))
	}
	return errs
}

// remapNow drives an OpRemap through Apply and Commit the way a transport
// does, with every payload copy landing, and reports the old and fresh
// refs, whether the chunk was shared, and the foreign ref released.
func remapNow(m *Manager, name string, idx int) (old, fresh proto.ChunkRef, shared bool, foreignFreed []proto.ChunkRef, err error) {
	resp, fx := m.Apply(&proto.ManagerReq{Op: proto.OpRemap, Name: name, ChunkIdx: idx}, 0)
	shared = len(fx.Copies) > 0
	for len(fx.Copies) > 0 {
		fx = m.Commit(&resp, fx, copied(fx))
	}
	if err = proto.WireErr(resp.Err); err == nil {
		fresh = resp.NewRefs[0]
	}
	return resp.OldRef, fresh, shared, resp.ForeignFreed, err
}

// occupancy is everything an aborted remap must leave untouched.
type occupancy struct {
	used   map[int]int64
	chunks int
	refs   map[proto.ChunkID]int
}

func snapshot(m *Manager) occupancy {
	o := occupancy{used: map[int]int64{}, chunks: m.TotalChunks(), refs: map[proto.ChunkID]int{}}
	for _, b := range m.Status() {
		o.used[b.ID] = b.Used
	}
	for id, cm := range m.chunks {
		o.refs[id] = cm.refs
	}
	return o
}

// cowRig is a 3-chunk variable linked into a checkpoint, so every chunk of
// "var" is shared and a write needs a remap.
func cowRig(t *testing.T, replication int) (*Manager, proto.FileInfo) {
	t.Helper()
	m := newMgr(RoundRobin, 3)
	m.Replication = replication
	v, err := m.Create("var", 3*cs)
	if err != nil {
		t.Fatal(err)
	}
	m.Create("ckpt", 0)
	if _, err := m.Link("ckpt", []string{"var"}); err != nil {
		t.Fatal(err)
	}
	check(t, m)
	return m, v
}

// TestApplyRemapReportsBeginErrors: a remap that cannot begin — no such
// file, a chunk out of range, no space for the copy of a shared chunk —
// answers with that error. An empty success would tell the writer to write
// in place, into a chunk a checkpoint still shares.
func TestApplyRemapReportsBeginErrors(t *testing.T) {
	m, v := cowRig(t, 1)
	if _, err := m.Create("filler", 3*64*cs-3*cs); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		idx  int
		want error
	}{
		{"nope", 0, proto.ErrNoSuchFile},
		{"var", 3, proto.ErrChunkOutOfRange},
		{"var", 0, proto.ErrNoSpace},
	} {
		if _, _, _, _, err := remapNow(m, c.name, c.idx); !errors.Is(err, c.want) {
			t.Fatalf("remap %s[%d] = %v, want %v", c.name, c.idx, err, c.want)
		}
	}
	if fi, _ := m.Lookup("var"); !reflect.DeepEqual(fi.Chunks, v.Chunks) {
		t.Fatalf("failed remaps moved var to %v (was %v)", fi.Chunks, v.Chunks)
	}
	check(t, m)
}

func containsRef(refs []proto.ChunkRef, r proto.ChunkRef) int {
	n := 0
	for _, x := range refs {
		if x == r {
			n++
		}
	}
	return n
}

func TestRemapPendingIsUnpublished(t *testing.T) {
	m, v := cowRig(t, 2)
	pr, err := m.RemapBegin("var", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Shared() || pr.Old != v.Chunks[1] || len(pr.Fresh) != 2 {
		t.Fatalf("begin = %+v, want shared with a 2-copy fresh set", pr)
	}
	if pr.Fresh[0].Benefactor != pr.Old.Benefactor {
		t.Fatal("fresh primary should sit on the old chunk's benefactor")
	}
	check(t, m) // pins counted: old = var + ckpt + pin, fresh = pin
	if m.Refcount(pr.Old.ID) != 3 || m.Refcount(pr.Fresh[0].ID) != 1 {
		t.Fatalf("in-flight refs old=%d fresh=%d, want 3 and 1", m.Refcount(pr.Old.ID), m.Refcount(pr.Fresh[0].ID))
	}
	// Nothing a reader can call shows the fresh chunk yet.
	fi, _ := m.Lookup("var")
	ex, _ := m.ExportRange("var", 0, 3)
	m.Create("merge", 0)
	ln, _ := m.Link("merge", []string{"var"})
	dv, _ := m.Derive("view", "var", 0, 3, 3*cs)
	for name, got := range map[string]proto.FileInfo{"lookup": fi, "export": ex, "link": ln, "derive": dv} {
		if got.Chunks[1] != pr.Old {
			t.Fatalf("%s shows %v mid-remap, want the old chunk %v", name, got.Chunks[1], pr.Old)
		}
	}
	check(t, m)

	fresh, freed, ff, err := m.RemapCommit(pr, pr.Fresh)
	if err != nil || len(freed) != 0 || len(ff) != 0 {
		t.Fatalf("commit: fresh=%v freed=%v foreignFreed=%v err=%v", fresh, freed, ff, err)
	}
	if !reflect.DeepEqual(fresh, pr.Fresh) {
		t.Fatalf("commit published %v, want %v", fresh, pr.Fresh)
	}
	if fi, _ := m.Lookup("var"); fi.Chunks[1] != fresh[0] || !reflect.DeepEqual(fi.Replicas[1], fresh) {
		t.Fatalf("file table after commit: %v / %v", fi.Chunks[1], fi.Replicas[1])
	}
	if ck, _ := m.Lookup("ckpt"); ck.Chunks[1] != pr.Old {
		t.Fatal("checkpoint lost its chunk")
	}
	check(t, m)
}

func TestRemapAbortRestoresEverything(t *testing.T) {
	m, _ := cowRig(t, 2)
	before := snapshot(m)
	pr, err := m.RemapBegin("var", 0)
	if err != nil {
		t.Fatal(err)
	}
	check(t, m)
	freed := m.RemapAbort(pr)
	if !reflect.DeepEqual(freed, pr.Fresh) {
		t.Fatalf("abort freed %v, want the fresh copy set %v", freed, pr.Fresh)
	}
	if after := snapshot(m); !reflect.DeepEqual(before, after) {
		t.Fatalf("abort left residue:\nbefore %+v\nafter  %+v", before, after)
	}
	if fi, _ := m.Lookup("var"); fi.Chunks[0] != pr.Old {
		t.Fatal("aborted remap changed the file table")
	}
	check(t, m)
}

func TestRemapCommitWithoutPrimaryCopyAborts(t *testing.T) {
	m, _ := cowRig(t, 2)
	before := snapshot(m)
	pr, _ := m.RemapBegin("var", 0)
	// Only the replica was written: the primary decides.
	_, freed, _, err := m.RemapCommit(pr, pr.Fresh[1:])
	if err == nil {
		t.Fatal("commit without the primary copy must fail")
	}
	if len(freed) != 2 {
		t.Fatalf("freed %v, want both fresh copies", freed)
	}
	if after := snapshot(m); !reflect.DeepEqual(before, after) {
		t.Fatalf("failed commit left residue:\nbefore %+v\nafter  %+v", before, after)
	}
	check(t, m)
}

func TestRemapCommitDropsUncopiedReplica(t *testing.T) {
	m, _ := cowRig(t, 2)
	pr, _ := m.RemapBegin("var", 0)
	fresh, freed, _, err := m.RemapCommit(pr, pr.Fresh[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 1 || fresh[0] != pr.Fresh[0] {
		t.Fatalf("published %v, want only the copied primary", fresh)
	}
	if len(freed) != 1 || freed[0] != pr.Fresh[1] {
		t.Fatalf("freed %v, want the uncopied replica %v", freed, pr.Fresh[1])
	}
	check(t, m)
	if got := m.UnderReplicated(); len(got) != 1 || got[0] != fresh[0].ID {
		t.Fatalf("under-replicated = %v, want the degraded fresh chunk", got)
	}
}

func TestRemapDeleteFileBetweenPhases(t *testing.T) {
	m, _ := cowRig(t, 1)
	pr, _ := m.RemapBegin("var", 2)
	if freed, err := m.Delete("var"); err != nil || len(freed) != 0 {
		t.Fatalf("delete mid-remap: freed=%v err=%v (ckpt and the pin still hold everything)", freed, err)
	}
	check(t, m)
	_, freed, _, err := m.RemapCommit(pr, pr.Fresh)
	if !errors.Is(err, proto.ErrNoSuchFile) {
		t.Fatalf("commit after delete: %v, want ErrNoSuchFile", err)
	}
	if !reflect.DeepEqual(freed, pr.Fresh) {
		t.Fatalf("freed %v, want the fresh chunk %v", freed, pr.Fresh)
	}
	if m.TotalChunks() != 3 || m.Refcount(pr.Old.ID) != 1 {
		t.Fatalf("chunks=%d old refs=%d, want the checkpoint's 3 chunks at 1 ref", m.TotalChunks(), m.Refcount(pr.Old.ID))
	}
	check(t, m)
}

func TestRemapTwoClientsRace(t *testing.T) {
	m, _ := cowRig(t, 1)
	a, _ := m.RemapBegin("var", 1)
	b, err := m.RemapBegin("var", 1)
	if err != nil {
		t.Fatal(err)
	}
	// The first client's pin keeps the chunk shared for the second: it must
	// never be told to write in place under the first client's copy.
	if !b.Shared() || b.Old != a.Old || b.Fresh[0].ID == a.Fresh[0].ID {
		t.Fatalf("second begin = %+v (first %+v)", b, a)
	}
	check(t, m)
	if _, _, _, err := m.RemapCommit(a, a.Fresh); err != nil {
		t.Fatal(err)
	}
	check(t, m)
	_, freed, _, err := m.RemapCommit(b, b.Fresh)
	if !errors.Is(err, ErrRemapRaced) {
		t.Fatalf("losing commit: %v, want ErrRemapRaced", err)
	}
	if !reflect.DeepEqual(freed, b.Fresh) {
		t.Fatalf("loser freed %v, want its own fresh chunk %v", freed, b.Fresh)
	}
	check(t, m)
	if fi, _ := m.Lookup("var"); fi.Chunks[1] != a.Fresh[0] {
		t.Fatal("the winner's chunk is not the published one")
	}
	if m.Refcount(a.Old.ID) != 1 {
		t.Fatalf("old refs = %d, want 1 (the checkpoint)", m.Refcount(a.Old.ID))
	}
	// The loser's retry finds the winner's chunk unshared: write in place.
	r, err := m.RemapBegin("var", 1)
	if err != nil || r.Shared() || r.Old != a.Fresh[0] {
		t.Fatalf("retry = %+v err=%v, want unshared on %v", r, err, a.Fresh[0])
	}
	check(t, m)
}

func TestRemapCheckpointDeletedBetweenPhases(t *testing.T) {
	m, _ := cowRig(t, 2)
	pr, _ := m.RemapBegin("var", 0)
	freed, err := m.Delete("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if containsRef(freed, pr.Old) != 0 {
		t.Fatal("deleting the checkpoint freed a chunk the variable and a remap still hold")
	}
	check(t, m) // old = var + pin
	oldCopies := m.Replicas(pr.Old.ID)
	_, freed, _, err = m.RemapCommit(pr, pr.Fresh)
	if err != nil {
		t.Fatal(err)
	}
	// The variable was old's last file holder: commit frees it, once.
	if !reflect.DeepEqual(freed, oldCopies) {
		t.Fatalf("commit freed %v, want old's copies %v exactly once", freed, oldCopies)
	}
	if m.Refcount(pr.Old.ID) != 0 {
		t.Fatal("old chunk survived its last reference")
	}
	check(t, m)
}

func TestRemapFreeAndRestoreBetweenPhases(t *testing.T) {
	m, _ := cowRig(t, 1)
	pr, _ := m.RemapBegin("var", 1)
	// ssdfree + restore under the same name: the re-derived variable
	// references the very same chunk, so the in-flight remap still applies.
	if _, err := m.Delete("var"); err != nil {
		t.Fatal(err)
	}
	check(t, m)
	if _, err := m.Derive("var", "ckpt", 0, 3, 3*cs); err != nil {
		t.Fatal(err)
	}
	check(t, m)
	fresh, freed, _, err := m.RemapCommit(pr, pr.Fresh)
	if err != nil || len(freed) != 0 {
		t.Fatalf("commit after free+restore: freed=%v err=%v", freed, err)
	}
	if fi, _ := m.Lookup("var"); fi.Chunks[1] != fresh[0] {
		t.Fatal("commit did not publish into the restored variable")
	}
	if m.Refcount(pr.Old.ID) != 1 {
		t.Fatalf("old refs = %d, want 1 (the checkpoint)", m.Refcount(pr.Old.ID))
	}
	check(t, m)
}

func TestRemapForeignChunkTwoPhase(t *testing.T) {
	src := newShard(0, 2, 2)
	dst := newShard(1, 2, 2)
	if _, err := src.Create("var", 2*cs); err != nil {
		t.Fatal(err)
	}
	ex, _ := src.ExportRange("var", 0, 2)
	if err := src.RetainRefs([]proto.ChunkID{ex.Chunks[0].ID, ex.Chunks[1].ID}); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.LinkRefs("ckpt", ex.Chunks, ex.Replicas, ex.Size, true); err != nil {
		t.Fatal(err)
	}
	check(t, src, dst)

	// Abort: the foreign reference is untouched, nothing to release.
	before := snapshot(dst)
	pr, err := dst.RemapBegin("ckpt", 0)
	if err != nil || !pr.Shared() || dst.Owns(pr.Old.ID) || !dst.Owns(pr.Fresh[0].ID) {
		t.Fatalf("begin on a foreign chunk = %+v err=%v", pr, err)
	}
	check(t, src, dst)
	dst.RemapAbort(pr)
	if after := snapshot(dst); !reflect.DeepEqual(before, after) || dst.ForeignRefs(pr.Old.ID) != 1 {
		t.Fatalf("abort disturbed the foreign table: %+v -> %+v", before, after)
	}
	check(t, src, dst)

	// Commit: the foreign reference comes back exactly once.
	pr, _ = dst.RemapBegin("ckpt", 0)
	_, freed, ff, err := dst.RemapCommit(pr, pr.Fresh)
	if err != nil || len(freed) != 0 || len(ff) != 1 || ff[0] != pr.Old {
		t.Fatalf("commit: freed=%v foreignFreed=%v err=%v", freed, ff, err)
	}
	if dst.ForeignRefs(pr.Old.ID) != 0 {
		t.Fatal("foreign hold not dropped")
	}
	if got := src.ReleaseRefs([]proto.ChunkID{pr.Old.ID}); len(got) != 0 {
		t.Fatalf("owner freed %v while its own file still references the chunk", got)
	}
	check(t, src, dst)
}

// Two clients remap the same foreign chunk. It cannot be pinned from this
// shard, so once the first commit hands the reference back its owner may
// delete the payload under the second client's copy: the second commit —
// primary uncopied — must report the lost race (which the server retries),
// not the copy failure, and the retry writes in place.
func TestRemapForeignChunkTwoClientsRace(t *testing.T) {
	src := newShard(0, 2, 1)
	dst := newShard(1, 2, 1)
	if _, err := src.Create("var", cs); err != nil {
		t.Fatal(err)
	}
	ex, _ := src.ExportRange("var", 0, 1)
	if err := src.RetainRefs([]proto.ChunkID{ex.Chunks[0].ID}); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.LinkRefs("ckpt", ex.Chunks, ex.Replicas, ex.Size, true); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Delete("var"); err != nil { // dst's hold is now the last
		t.Fatal(err)
	}
	a, _ := dst.RemapBegin("ckpt", 0)
	b, err := dst.RemapBegin("ckpt", 0)
	if err != nil || !b.Shared() || b.Old != a.Old {
		t.Fatalf("second begin = %+v err=%v (first %+v)", b, err, a)
	}
	check(t, src, dst)
	if _, _, ff, err := dst.RemapCommit(a, a.Fresh); err != nil || len(ff) != 1 || ff[0] != a.Old {
		t.Fatalf("winning commit: foreignFreed=%v err=%v", ff, err)
	}
	if gone := src.ReleaseRefs([]proto.ChunkID{a.Old.ID}); len(gone) != 1 || gone[0] != a.Old {
		t.Fatalf("owner freed %v on the last release, want %v", gone, a.Old)
	}
	check(t, src, dst)
	_, freed, ff, err := dst.RemapCommit(b, nil) // b's copy found the source gone
	if !errors.Is(err, ErrRemapRaced) || len(ff) != 0 {
		t.Fatalf("losing commit: foreignFreed=%v err=%v, want ErrRemapRaced and nothing released", ff, err)
	}
	if !reflect.DeepEqual(freed, b.Fresh) {
		t.Fatalf("loser freed %v, want its own fresh chunk %v", freed, b.Fresh)
	}
	check(t, src, dst)
	if r, err := dst.RemapBegin("ckpt", 0); err != nil || r.Shared() || r.Old != a.Fresh[0] {
		t.Fatalf("retry = %+v err=%v, want unshared on %v", r, err, a.Fresh[0])
	}
	check(t, src, dst)
}

func TestRepairSkipsUnpublishedChunk(t *testing.T) {
	m, _ := cowRig(t, 2)
	pr, _ := m.RemapBegin("var", 0)
	m.MarkDead(pr.Fresh[1].Benefactor)
	backlog := m.UnderReplicatedCount()
	resp, fx := m.Apply(&proto.ManagerReq{Op: proto.OpRepair}, 0)
	if len(fx.Copies) == 0 {
		t.Fatal("repair scheduled no copy for the chunks on the dead benefactor")
	}
	for _, cp := range fx.Copies {
		if cp.Src.ID == pr.Fresh[0].ID {
			t.Fatalf("repair scheduled a copy of the unpublished chunk: %+v", cp)
		}
	}
	check(t, m)

	// A repair destination is reserved, not published, until its copy
	// commits: no reader lists it, fails over onto it, or counts it.
	fi, _ := m.Lookup("var")
	for _, cp := range fx.Copies {
		for _, dst := range cp.Dsts {
			if containsRef(m.Replicas(dst.ID), dst) != 0 {
				t.Fatalf("replicas list the unpublished repair destination %v", dst)
			}
			for _, reps := range fi.Replicas {
				if containsRef(reps, dst) != 0 {
					t.Fatalf("lookup lists the unpublished repair destination %v", dst)
				}
			}
			if live, _ := m.LiveRef(dst.ID); live == dst {
				t.Fatalf("failover resolves to the unpublished repair destination %v", dst)
			}
		}
	}
	if got := m.UnderReplicatedCount(); got != backlog {
		t.Fatalf("under-replicated = %d mid-repair, want %d", got, backlog)
	}
	m.Commit(&resp, fx, copied(fx))
	for _, cp := range fx.Copies {
		for _, dst := range cp.Dsts {
			if containsRef(m.Replicas(dst.ID), dst) != 1 {
				t.Fatalf("commit did not publish the repair destination %v", dst)
			}
		}
	}
	if resp.Repaired == 0 || resp.RepairFailed != 0 {
		t.Fatalf("repair = %d copied, %d failed", resp.Repaired, resp.RepairFailed)
	}
	check(t, m)
}

// TestRepairCommitSettlesReservations: a repair copy that fails gives its
// reservation back, and one whose chunk was freed while it ran is deleted
// once it lands.
func TestRepairCommitSettlesReservations(t *testing.T) {
	m := newMgr(RoundRobin, 3)
	m.Replication = 2
	f0, _ := m.Create("f0", cs)
	f1, _ := m.Create("f1", cs)
	victim := -1
	for _, a := range m.Replicas(f0.Chunks[0].ID) {
		for _, b := range m.Replicas(f1.Chunks[0].ID) {
			if a.Benefactor == b.Benefactor {
				victim = a.Benefactor
			}
		}
	}
	if victim < 0 {
		t.Fatal("f0 and f1 share no benefactor")
	}
	m.MarkDead(victim)
	resp, fx := m.Apply(&proto.ManagerReq{Op: proto.OpRepair}, 0)
	if len(fx.Copies) != 2 || fx.Copies[0].Src.ID != f0.Chunks[0].ID {
		t.Fatalf("repair copies = %+v, want one per file, f0's first", fx.Copies)
	}
	check(t, m)
	if _, err := m.Delete("f0"); err != nil { // f0's chunk is freed mid-copy
		t.Fatal(err)
	}
	check(t, m)
	lands, fails := fx.Copies[0].Dsts[0], fx.Copies[1].Dsts[0]
	next := m.Commit(&resp, fx, [][]error{{nil}, {errors.New("copy failed")}})
	if resp.Repaired != 1 || resp.RepairFailed != 1 {
		t.Fatalf("repair = %d copied, %d failed, want 1 and 1", resp.Repaired, resp.RepairFailed)
	}
	want := []Batch{{Ben: lands.Benefactor, IDs: []proto.ChunkID{lands.ID}}}
	if !reflect.DeepEqual(next.Deletes, want) || len(next.Copies) != 0 {
		t.Fatalf("after commit: deletes %+v copies %+v, want the landed copy of the freed chunk deleted", next.Deletes, next.Copies)
	}
	if containsRef(m.Replicas(fails.ID), fails) != 0 {
		t.Fatalf("failed repair destination %v published", fails)
	}
	if got := m.UnderReplicatedCount(); got != 1 {
		t.Fatalf("under-replicated = %d after a failed repair copy, want 1", got)
	}
	check(t, m)
}

// TestApplyRemapRetriesLostRace: a remap whose commit loses the race begins
// again inside Commit, finds the winner's chunk unshared and answers "write
// in place", returning no further copy and its own fresh copy to delete.
func TestApplyRemapRetriesLostRace(t *testing.T) {
	m, v := cowRig(t, 1)
	req := &proto.ManagerReq{Op: proto.OpRemap, Name: "var", ChunkIdx: 1}
	ra, fa := m.Apply(req, 0)
	rb, fb := m.Apply(req, 0)
	if len(fa.Copies) != 1 || len(fb.Copies) != 1 {
		t.Fatalf("copies = %+v and %+v, want one each", fa.Copies, fb.Copies)
	}
	check(t, m)
	if next := m.Commit(&ra, fa, copied(fa)); len(next.Copies) != 0 || ra.Err != "" || ra.OldRef != v.Chunks[1] {
		t.Fatalf("winner: resp %+v, next %+v", ra, next)
	}
	next := m.Commit(&rb, fb, copied(fb))
	if len(next.Copies) != 0 || rb.Err != "" || rb.NewRefs[0] != ra.NewRefs[0] {
		t.Fatalf("loser: resp %+v next %+v, want the winner's chunk %v in place", rb, next, ra.NewRefs[0])
	}
	lost := fb.Copies[0].Dsts[0]
	if want := []Batch{{Ben: lost.Benefactor, IDs: []proto.ChunkID{lost.ID}}}; !reflect.DeepEqual(next.Deletes, want) {
		t.Fatalf("loser deletes %+v, want its rolled-back copy %+v", next.Deletes, want)
	}
	check(t, m)
}
