package manager

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nvmalloc/internal/proto"
)

const cs = 1024

func newMgr(policy PlacementPolicy, bens int) *Manager {
	m := New(cs, policy)
	for i := 0; i < bens; i++ {
		m.Register(proto.BenefactorInfo{ID: i, Node: i, Capacity: 64 * cs}, "", 0)
	}
	return m
}

func TestCreateStripesRoundRobin(t *testing.T) {
	m := newMgr(RoundRobin, 4)
	fi, err := m.Create("f", 8*cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fi.Chunks) != 8 {
		t.Fatalf("chunks = %d, want 8", len(fi.Chunks))
	}
	for i, r := range fi.Chunks {
		if r.Benefactor != i%4 {
			t.Fatalf("chunk %d on benefactor %d, want %d (round robin)", i, r.Benefactor, i%4)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCreatePartialLastChunk(t *testing.T) {
	m := newMgr(RoundRobin, 2)
	fi, err := m.Create("f", 3*cs/2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fi.Chunks) != 2 {
		t.Fatalf("chunks = %d, want 2 (size rounds up)", len(fi.Chunks))
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	m := newMgr(RoundRobin, 2)
	if _, err := m.Create("f", cs); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("f", cs); err != proto.ErrFileExists {
		t.Fatalf("want ErrFileExists, got %v", err)
	}
}

func TestCreateRollsBackOnNoSpace(t *testing.T) {
	m := newMgr(RoundRobin, 1)
	if _, err := m.Create("big", 100*cs); err != proto.ErrNoSpace {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if m.TotalChunks() != 0 {
		t.Fatalf("partial allocation leaked %d chunks", m.TotalChunks())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteFreesChunks(t *testing.T) {
	m := newMgr(RoundRobin, 2)
	fi, _ := m.Create("f", 4*cs)
	freed, err := m.Delete("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(freed) != len(fi.Chunks) {
		t.Fatalf("freed %d chunks, want %d", len(freed), len(fi.Chunks))
	}
	if m.TotalChunks() != 0 {
		t.Fatal("chunks leaked")
	}
	st := m.Status()
	if st[0].Used != 0 || st[1].Used != 0 {
		t.Fatalf("space not released: %+v", st)
	}
}

func TestLinkSharesChunksWithoutCopy(t *testing.T) {
	m := newMgr(RoundRobin, 2)
	v, _ := m.Create("var", 4*cs)
	m.Create("ckpt", 2*cs) // DRAM-state chunks
	before := m.TotalChunks()
	ck, err := m.Link("ckpt", []string{"var"})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalChunks() != before {
		t.Fatal("link must not allocate new chunks")
	}
	if len(ck.Chunks) != 6 || ck.Size != 6*cs {
		t.Fatalf("linked file has %d chunks size %d", len(ck.Chunks), ck.Size)
	}
	for _, r := range v.Chunks {
		if m.Refcount(r.ID) != 2 {
			t.Fatalf("chunk %v refcount %d, want 2", r, m.Refcount(r.ID))
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Deleting the variable must keep the shared chunks alive for the
	// checkpoint.
	freed, _ := m.Delete("var")
	if len(freed) != 0 {
		t.Fatalf("deleting linked var freed %d chunks, want 0", len(freed))
	}
	freed, _ = m.Delete("ckpt")
	if len(freed) != 6 {
		t.Fatalf("deleting checkpoint freed %d chunks, want 6", len(freed))
	}
}

func TestRemapCopyOnWrite(t *testing.T) {
	m := newMgr(RoundRobin, 2)
	v, _ := m.Create("var", 3*cs)
	m.Create("ckpt", 0)
	m.Link("ckpt", []string{"var"})

	old, fresh, shared, _, err := remapNow(m, "var", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !shared {
		t.Fatal("chunk 1 is shared with the checkpoint; Remap must report shared")
	}
	if old.ID == fresh.ID {
		t.Fatal("remap must allocate a new chunk")
	}
	if fresh.Benefactor != old.Benefactor {
		t.Fatal("remap should stay on the same benefactor for a server-side copy")
	}
	if old != v.Chunks[1] {
		t.Fatalf("old ref %v, want %v", old, v.Chunks[1])
	}
	// The variable now points at the fresh chunk; the checkpoint keeps the
	// old one.
	nv, _ := m.Lookup("var")
	if nv.Chunks[1] != fresh {
		t.Fatal("file table not updated")
	}
	ck, _ := m.Lookup("ckpt")
	if ck.Chunks[1] != old {
		t.Fatal("checkpoint lost its chunk")
	}
	if m.Refcount(old.ID) != 1 || m.Refcount(fresh.ID) != 1 {
		t.Fatal("refcounts after remap wrong")
	}
	// A second write to the same chunk needs no remap.
	_, _, shared, _, err = remapNow(m, "var", 1)
	if err != nil || shared {
		t.Fatalf("second remap: shared=%v err=%v, want unshared", shared, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementPolicies(t *testing.T) {
	// Least-loaded should fill an emptier benefactor first.
	m := New(cs, LeastLoaded)
	m.Register(proto.BenefactorInfo{ID: 0, Capacity: 64 * cs}, "", 0)
	m.Register(proto.BenefactorInfo{ID: 1, Capacity: 8 * cs}, "", 0)
	fi, _ := m.Create("f", 4*cs)
	for _, r := range fi.Chunks {
		if r.Benefactor != 0 {
			t.Fatalf("least-loaded placed a chunk on the small benefactor: %v", fi.Chunks)
		}
	}
	// Wear-aware should avoid the benefactor with high write volume.
	m2 := New(cs, WearAware)
	m2.Register(proto.BenefactorInfo{ID: 0, Capacity: 64 * cs, WriteVolume: 1 << 40}, "", 0)
	m2.Register(proto.BenefactorInfo{ID: 1, Capacity: 64 * cs, WriteVolume: 0}, "", 0)
	fi2, _ := m2.Create("f", 2*cs)
	for _, r := range fi2.Chunks {
		if r.Benefactor != 1 {
			t.Fatalf("wear-aware placed chunk on worn benefactor: %v", fi2.Chunks)
		}
	}
}

func TestHeartbeatAndSweep(t *testing.T) {
	m := newMgr(RoundRobin, 2)
	m.HeartbeatTimeout = 3 * time.Second
	m.Heartbeat(0, 123, 1*time.Second)
	m.Heartbeat(1, 0, 1*time.Second)
	if died := m.Sweep(2 * time.Second); len(died) != 0 {
		t.Fatalf("premature deaths: %v", died)
	}
	m.Heartbeat(0, 456, 5*time.Second)
	died := m.Sweep(6 * time.Second)
	if len(died) != 1 || died[0] != 1 {
		t.Fatalf("sweep = %v, want [1]", died)
	}
	if m.Alive(1) {
		t.Fatal("benefactor 1 should be dead")
	}
	// Dead benefactors receive no new chunks.
	fi, err := m.Create("f", 4*cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fi.Chunks {
		if r.Benefactor == 1 {
			t.Fatal("placed chunk on dead benefactor")
		}
	}
	// A heartbeat does NOT revive it: a dead benefactor may hold stale
	// pre-partition copies, so it must come back through Register (which
	// fences its claims, §9/§16), not a silent beat.
	if err := m.Heartbeat(1, 0, 7*time.Second); err == nil {
		t.Fatal("heartbeat on a dead benefactor should be rejected")
	}
	if m.Alive(1) {
		t.Fatal("heartbeat must not revive a dead benefactor")
	}
	// Re-registration is the only road back.
	if wasDead := m.Register(proto.BenefactorInfo{ID: 1, Capacity: 64 * cs}, "", 8*time.Second); !wasDead {
		t.Fatal("re-register of a dead benefactor should report wasDead")
	}
	if !m.Alive(1) {
		t.Fatal("register should revive")
	}
}

func TestStatusSorted(t *testing.T) {
	m := newMgr(RoundRobin, 3)
	st := m.Status()
	for i, b := range st {
		if b.ID != i {
			t.Fatalf("status not sorted: %+v", st)
		}
	}
}

// Property: under random create/delete/link/remap sequences the manager's
// invariants hold and usage accounting is exact.
func TestManagerInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newMgr(RoundRobin, 3)
		names := []string{}
		for op := 0; op < 150; op++ {
			switch rng.Intn(4) {
			case 0:
				n := fmt.Sprintf("f%d", op)
				if _, err := m.Create(n, int64(rng.Intn(8)+1)*cs); err == nil {
					names = append(names, n)
				}
			case 1:
				if len(names) > 0 {
					i := rng.Intn(len(names))
					m.Delete(names[i])
					names = append(names[:i], names[i+1:]...)
				}
			case 2:
				if len(names) >= 2 {
					m.Link(names[rng.Intn(len(names))], []string{names[rng.Intn(len(names))]})
				}
			case 3:
				if len(names) > 0 {
					remapNow(m, names[rng.Intn(len(names))], rng.Intn(8))
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
