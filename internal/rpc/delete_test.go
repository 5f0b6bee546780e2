package rpc

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
)

// newDeleteRig starts a manager at replication 2 and one in-memory
// benefactor per backend (nil = a plain benefactor.Mem).
func newDeleteRig(tb testing.TB, backends ...benefactor.Backend) *rig {
	tb.Helper()
	ms, err := NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin, ManagerConfig{Replication: 2})
	if err != nil {
		tb.Fatal(err)
	}
	r := &rig{mgr: ms}
	tb.Cleanup(func() { ms.Close() })
	for i, be := range backends {
		if be == nil {
			be = benefactor.NewMem()
		}
		bs, err := NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 64*testChunk, testChunk, be, 0)
		if err != nil {
			tb.Fatal(err)
		}
		r.bens = append(r.bens, bs)
		tb.Cleanup(func() { bs.Close() })
	}
	return r
}

// deleteFrames sums the delete ops the benefactors served: one per NVM1
// delete frame, however many chunks it names.
func deleteFrames(r *rig) int64 {
	var n int64
	for _, b := range r.bens {
		n += b.Obs().Reg.Histogram("benefactor.op.delchunk.latency").Snapshot().Count
	}
	return n
}

func usedBytes(r *rig) (total int64, holders int) {
	for _, b := range r.bens {
		if u := b.Store().Used(); u > 0 {
			total += u
			holders++
		}
	}
	return total, holders
}

// TestDeleteOneFramePerBenefactor: deleting a file sends each benefactor
// holding its chunks one delete frame, not one per replica, and the space
// is reclaimed by the time Delete returns.
func TestDeleteOneFramePerBenefactor(t *testing.T) {
	r := newDeleteRig(t, nil, nil, nil)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := putFile(st, "f", pattern(1, 3*testChunk)); err != nil {
		t.Fatal(err)
	}
	used, holders := usedBytes(r)
	if used != 6*testChunk {
		t.Fatalf("3 chunks at replication 2 hold %d bytes, want %d", used, 6*testChunk)
	}
	before := deleteFrames(r)
	if err := st.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if used, _ := usedBytes(r); used != 0 {
		t.Errorf("benefactors still hold %d bytes after Delete returned", used)
	}
	if got := deleteFrames(r) - before; got != int64(holders) {
		t.Errorf("delete sent %d frames for 6 refs on %d benefactors, want %d", got, holders, holders)
	}
}

// gateBackend blocks every Delete — or, with puts set, every Put — until
// release is closed, announcing on entered (buffered) that one has arrived.
// A released Put fails with putErr when it is set.
type gateBackend struct {
	benefactor.Backend
	puts    bool
	putErr  error
	entered chan struct{}
	release chan struct{}
}

func (g *gateBackend) wait() {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
}

func (g *gateBackend) Delete(id proto.ChunkID) error {
	if !g.puts {
		g.wait()
	}
	return g.Backend.Delete(id)
}

func (g *gateBackend) Put(id proto.ChunkID, data []byte) error {
	if g.puts {
		g.wait()
		if g.putErr != nil {
			return g.putErr
		}
	}
	return g.Backend.Put(id, data)
}

// TestDeleteDoesNotHoldManagerLock: while a Delete waits on a slow
// benefactor, other metadata ops on the same manager still complete.
func TestDeleteDoesNotHoldManagerLock(t *testing.T) {
	gate := &gateBackend{Backend: benefactor.NewMem(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	released := false
	release := func() {
		if !released {
			released = true
			close(gate.release)
		}
	}
	defer release()
	r := newDeleteRig(t, nil, gate, nil)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := putFile(st, "f", pattern(2, 3*testChunk)); err != nil {
		t.Fatal(err)
	}
	deleted := make(chan error, 1)
	go func() { deleted <- st.Delete("f") }()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Delete never reached the gated benefactor")
	}

	others := make(chan error, 1)
	go func() {
		if err := st.Create("g", testChunk); err != nil {
			others <- err
			return
		}
		_, err := st.Stat("g")
		others <- err
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Fatalf("Create/Stat during a blocked Delete: %v", err)
		}
	case <-time.After(time.Second):
		t.Error("Create+Stat waited over 1s behind a Delete blocked on a benefactor")
	}

	release()
	select {
	case err := <-deleted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Delete did not return after the benefactor was released")
	}
	if used, _ := usedBytes(r); used != 0 {
		t.Errorf("benefactors still hold %d bytes after Delete returned", used)
	}
}

// repairRig stores one chunk at replication 2 on benefactors 0 and 1,
// declares benefactor 0 dead, and starts a repair whose copy onto
// benefactor 2 — the only candidate — blocks in gate's Put. It returns the
// client and the channel the repair's outcome arrives on.
func repairRig(t *testing.T, gate *gateBackend) (*rig, *Store, <-chan repairDone) {
	t.Helper()
	r := newDeleteRig(t, nil, nil, gate)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := putFile(st, "f", pattern(3, testChunk)); err != nil {
		t.Fatal(err)
	}
	if err := st.Manager().MarkDead(0); err != nil {
		t.Fatal(err)
	}
	repaired := make(chan repairDone, 1)
	go func() {
		res, err := st.Manager().Repair()
		repaired <- repairDone{res, err}
	}()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("repair never reached the gated destination")
	}
	return r, st, repaired
}

type repairDone struct {
	RepairResult
	err error
}

// lookupBens returns the benefactors a fresh lookup lists for chunk 0 of
// name.
func lookupBens(t *testing.T, r *rig, name string) []int {
	t.Helper()
	mc, err := DialManager(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	fi, err := mc.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	var bens []int
	for _, ref := range fi.Replicas[0] {
		bens = append(bens, ref.Benefactor)
	}
	return bens
}

// TestRepairDoesNotHoldManagerLock: while a repair copy waits on a slow
// destination, other metadata ops on the same manager still complete, and
// no lookup lists the destination until its copy has landed.
func TestRepairDoesNotHoldManagerLock(t *testing.T) {
	gate := &gateBackend{Backend: benefactor.NewMem(), puts: true, entered: make(chan struct{}, 1), release: make(chan struct{})}
	r, st, repaired := repairRig(t, gate)
	defer func() {
		select {
		case <-gate.release:
		default:
			close(gate.release)
		}
	}()

	others := make(chan error, 1)
	go func() {
		if err := st.Create("g", testChunk); err != nil {
			others <- err
			return
		}
		_, err := st.Stat("g")
		others <- err
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Fatalf("Create/Stat during a blocked repair copy: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Create+Stat waited over 1s behind a repair copy blocked on a benefactor")
	}
	if bens := lookupBens(t, r, "f"); slices.Contains(bens, 2) {
		t.Fatalf("lookup lists the unpublished repair destination: %v", bens)
	}

	close(gate.release)
	select {
	case res := <-repaired:
		if res.err != nil || res.Repaired != 1 || res.Failed != 0 || res.UnderReplicated != 0 {
			t.Fatalf("repair: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("repair did not return after the destination was released")
	}
	if bens := lookupBens(t, r, "f"); !slices.Contains(bens, 2) {
		t.Fatalf("lookup after repair lists %v, want the destination 2 among them", bens)
	}
	got, err := getFile(st, "f")
	if err != nil || !bytes.Equal(got, pattern(3, testChunk)) {
		t.Fatalf("read after repair: err=%v", err)
	}
}

// TestRepairCopyFailureLeavesNoReplica: a repair copy that fails releases
// its reservation — no lookup lists the destination, the destination's
// space is given back, and the chunk still counts as under-replicated.
func TestRepairCopyFailureLeavesNoReplica(t *testing.T) {
	gate := &gateBackend{Backend: benefactor.NewMem(), puts: true, putErr: errors.New("injected put failure"),
		entered: make(chan struct{}, 1), release: make(chan struct{})}
	r, _, repaired := repairRig(t, gate)
	close(gate.release)
	var res repairDone
	select {
	case res = <-repaired:
	case <-time.After(5 * time.Second):
		t.Fatal("repair did not return after the destination was released")
	}
	if res.err != nil || res.Repaired != 0 || res.Failed != 1 || res.UnderReplicated != 1 {
		t.Fatalf("repair: %+v, want one failed copy and the chunk still under-replicated", res)
	}
	if bens := lookupBens(t, r, "f"); slices.Contains(bens, 2) {
		t.Fatalf("a failed repair copy left its destination listed: %v", bens)
	}
	r.mgr.mu.Lock()
	defer r.mgr.mu.Unlock()
	if err := r.mgr.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := r.mgr.mgr.UnderReplicatedCount(); n != 1 {
		t.Fatalf("under-replicated = %d, want 1", n)
	}
	for _, b := range r.mgr.mgr.Status() {
		if b.ID == 2 && b.Used != 0 {
			t.Fatalf("failed repair destination still has %d bytes reserved", b.Used)
		}
	}
}

// TestDropBenConnKeepsFresherConn: a failure reported on a connection that
// a re-registration already replaced closes that connection but leaves the
// freshly dialled one cached.
func TestDropBenConnKeepsFresherConn(t *testing.T) {
	r := newRig(t, 1)
	ms, addr := r.mgr, r.bens[0].Addr()
	stale, err := ms.benConn(0, addr)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := DialManager(ms.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if err := mc.Register(0, 0, addr, 64*testChunk); err != nil {
		t.Fatal(err)
	}
	fresh, err := ms.benConn(0, addr)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == stale {
		t.Fatal("re-registration kept the old connection cached")
	}
	ms.dropBenConn(0, stale) // a late failure report from a stale holder

	if got, _ := ms.benConn(0, addr); got != fresh {
		t.Error("a failure on the stale connection evicted the fresh one")
	}
	del := proto.ChunkReq{Op: proto.OpDeleteChunk, ID: 999}
	if _, err := stale.call(del); err == nil {
		t.Error("the stale connection is still open")
	}
	if _, err := fresh.call(del); err != nil {
		t.Errorf("fresh connection: %v", err)
	}
}

// BenchmarkManagerDelete is the local row of the meta-churn delete ledger:
// Create+Delete of a 3-chunk file (no data written, as in meta-churn) on a
// loopback manager with 3 benefactors at replication 2. Reports µs per
// Create+Delete pair and the delete frames the benefactors served per op.
func BenchmarkManagerDelete(b *testing.B) {
	r := newDeleteRig(b, nil, nil, nil)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	before := deleteFrames(r)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := st.Create("churn", 3*testChunk); err != nil {
			b.Fatal(err)
		}
		if err := st.Delete("churn"); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N), "us/op")
	b.ReportMetric(float64(deleteFrames(r)-before)/float64(b.N), "delete-frames/op")
}
