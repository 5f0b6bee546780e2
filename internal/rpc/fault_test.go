package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/store"
)

// faultRig is a replicated manager plus n benefactors whose backends are
// individually addressable for fault injection.
type faultRig struct {
	mgr      *ManagerServer
	bens     []*BenefactorServer
	backends []*FlakyBackend
}

func newFaultRig(t testing.TB, n int, cfg ManagerConfig) *faultRig {
	t.Helper()
	ms, err := NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &faultRig{mgr: ms}
	t.Cleanup(func() { ms.Close() })
	for i := 0; i < n; i++ {
		fb := NewFlakyBackend(benefactor.NewMem())
		bs, err := NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 256*testChunk, testChunk, fb, 25*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		r.bens = append(r.bens, bs)
		r.backends = append(r.backends, fb)
		t.Cleanup(func() { bs.Close() })
	}
	return r
}

// fastOpts keeps retry bursts and deadlines short enough for tests.
func fastOpts() Options {
	return Options{
		CallTimeout:   500 * time.Millisecond,
		DialTimeout:   time.Second,
		Retry:         RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		SuspectWindow: time.Second,
	}
}

// pattern builds a deterministic payload distinguishable per file.
func pattern(seed byte, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = seed ^ byte(i%251)
	}
	return b
}

// TestReplicaFailoverMidWorkload is the headline fault drill: one of three
// benefactors dies while readers hammer replicated files. Every read must
// keep returning correct bytes (served by the surviving replica), the
// failovers must show up in Stats, and a repair pass must restore full
// replica count.
func TestReplicaFailoverMidWorkload(t *testing.T) {
	r := newFaultRig(t, 3, ManagerConfig{
		Replication:      2,
		HeartbeatTimeout: 500 * time.Millisecond,
		SweepInterval:    50 * time.Millisecond,
	})
	st, err := OpenWith(r.mgr.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const nFiles, fileSize = 6, 4 * testChunk
	for i := 0; i < nFiles; i++ {
		if err := putFile(st, fmt.Sprintf("f%d", i), pattern(byte(i+1), fileSize)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg       sync.WaitGroup
		errsMu   sync.Mutex
		workErrs []error
	)
	stopReaders := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, testChunk)
			for i := 0; ; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				fi := (w + i) % nFiles
				off := int64(i%4) * testChunk
				if err := readFile(st, fmt.Sprintf("f%d", fi), off, buf); err != nil {
					errsMu.Lock()
					workErrs = append(workErrs, fmt.Errorf("read f%d@%d: %w", fi, off, err))
					errsMu.Unlock()
					return
				}
				want := pattern(byte(fi+1), fileSize)[off : off+testChunk]
				if !bytes.Equal(buf, want) {
					errsMu.Lock()
					workErrs = append(workErrs, fmt.Errorf("CORRUPTION f%d@%d", fi, off))
					errsMu.Unlock()
					return
				}
			}
		}(w)
	}

	// Let the workload warm up, then kill benefactor 0 mid-flight.
	time.Sleep(100 * time.Millisecond)
	r.bens[0].Close()
	if err := st.Manager().MarkDead(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	close(stopReaders)
	wg.Wait()
	for _, e := range workErrs {
		t.Error(e)
	}
	if t.Failed() {
		t.FailNow()
	}
	if fo := st.Stats().Failovers; fo == 0 {
		t.Fatal("no failovers recorded despite a dead benefactor")
	}

	// Repair restores full replica count onto the survivors.
	res, err := st.Manager().Repair()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.Lost) != 0 {
		t.Fatalf("repair: %+v", res)
	}
	if res.UnderReplicated != 0 {
		t.Fatalf("still %d under-replicated chunks after repair", res.UnderReplicated)
	}
	if res.Repaired == 0 {
		t.Fatal("repair restored nothing; expected re-replication of benefactor 0's chunks")
	}
	for i := 0; i < nFiles; i++ {
		got, err := getFile(st, fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatalf("post-repair read f%d: %v", i, err)
		}
		if !bytes.Equal(got, pattern(byte(i+1), fileSize)) {
			t.Fatalf("post-repair corruption in f%d", i)
		}
	}
}

// TestRepairRestoresReplicaCount proves repaired copies are real payloads: a
// second benefactor death after repair must not lose any byte.
func TestRepairRestoresReplicaCount(t *testing.T) {
	r := newFaultRig(t, 3, ManagerConfig{Replication: 2, SweepInterval: -1})
	st, err := OpenWith(r.mgr.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := pattern(9, 8*testChunk)
	if err := putFile(st, "data", payload); err != nil {
		t.Fatal(err)
	}

	r.bens[0].Close()
	if err := st.Manager().MarkDead(0); err != nil {
		t.Fatal(err)
	}
	res, err := st.Manager().Repair()
	if err != nil {
		t.Fatal(err)
	}
	if res.UnderReplicated != 0 || res.Failed != 0 || len(res.Lost) != 0 {
		t.Fatalf("repair: %+v", res)
	}

	// After repair every chunk lives on benefactors 1 and 2; losing 1 as
	// well must leave a full copy on 2.
	r.bens[1].Close()
	if err := st.Manager().MarkDead(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Refresh(); err != nil {
		t.Fatal(err)
	}
	got, err := getFile(st, "data") // looks up the repaired replica table
	if err != nil {
		t.Fatalf("read after second death: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted after second benefactor death")
	}
}

// TestHeartbeatExpiryExcludesBenefactor exercises the server's own clock
// tick: a benefactor that stops heartbeating (its listener stays up — a
// partitioned node, not a crashed one) is swept dead without any client
// polling, new allocations avoid it, and its chunks report under-replicated.
func TestHeartbeatExpiryExcludesBenefactor(t *testing.T) {
	r := newFaultRig(t, 3, ManagerConfig{
		Replication:      2,
		HeartbeatTimeout: 150 * time.Millisecond,
		SweepInterval:    25 * time.Millisecond,
	})
	st, err := OpenWith(r.mgr.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := putFile(st, "pre", pattern(3, 6*testChunk)); err != nil {
		t.Fatal(err)
	}

	r.bens[0].StopHeartbeat() // silent, but still serving
	deadline := time.Now().Add(3 * time.Second)
	for {
		bens, err := st.Manager().Status()
		if err != nil {
			t.Fatal(err)
		}
		dead := false
		for _, b := range bens {
			if b.ID == 0 && !b.Alive {
				dead = true
			}
		}
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("benefactor 0 never swept dead after heartbeats stopped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The dead benefactor's chunks are now under-replicated.
	resp, err := st.Manager().call(proto.ManagerReq{Op: proto.OpStatus})
	if err != nil {
		t.Fatal(err)
	}
	if resp.UnderReplicated == 0 {
		t.Fatal("no under-replication reported after a replica holder died")
	}

	// New allocations steer clear of the dead benefactor.
	if err := putFile(st, "post", pattern(4, 6*testChunk)); err != nil {
		t.Fatal(err)
	}
	fi, err := st.Stat("post")
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range fi.Chunks {
		if ref.Benefactor == 0 {
			t.Fatalf("chunk %d placed on dead benefactor 0", i)
		}
		for _, rep := range store.ReplicaRefs(fi, i) {
			if rep.Benefactor == 0 {
				t.Fatalf("replica of chunk %d placed on dead benefactor 0", i)
			}
		}
	}
}

// TestRetryRecoversFromReset injects a one-shot connection reset and a torn
// write: each costs one retry, not a failed read.
func TestRetryRecoversFromReset(t *testing.T) {
	r := newFaultRig(t, 1, ManagerConfig{SweepInterval: -1})
	var ctl FaultController
	opts := fastOpts()
	opts.Dial = ctl.Dial
	st, err := OpenWith(r.mgr.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := pattern(7, 2*testChunk)
	if err := putFile(st, "x", payload); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []FaultMode{FaultReset, FaultPartialWrite} {
		before := st.Stats().Retries
		ctl.Set(mode, 0, 1)
		got, err := getFile(st, "x")
		ctl.Clear()
		if err != nil {
			t.Fatalf("mode %d: read failed despite retry budget: %v", mode, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("mode %d: corrupted read", mode)
		}
		if st.Stats().Retries <= before {
			t.Fatalf("mode %d: no retry recorded", mode)
		}
	}
}

// TestDeadlineBoundsBlackhole wedges the link: requests vanish, and the
// per-call deadline must convert the hang into a bounded transient error.
func TestDeadlineBoundsBlackhole(t *testing.T) {
	r := newFaultRig(t, 1, ManagerConfig{SweepInterval: -1})
	var ctl FaultController
	opts := fastOpts()
	opts.CallTimeout = 300 * time.Millisecond
	opts.Dial = ctl.Dial
	st, err := OpenWith(r.mgr.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := pattern(5, testChunk)
	if err := putFile(st, "x", payload); err != nil {
		t.Fatal(err)
	}

	ctl.Set(FaultBlackhole, 0, -1)
	start := time.Now()
	_, err = getFile(st, "x")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("read succeeded through a black hole")
	}
	if !IsTransient(err) {
		t.Fatalf("blackhole error not transient: %v", err)
	}
	// Two attempts x 300ms deadline plus slack: the hang is bounded.
	if elapsed > 3*time.Second {
		t.Fatalf("blackholed read took %v; deadline not enforced", elapsed)
	}

	// The link heals; the next read redials and succeeds.
	ctl.Clear()
	got, err := getFile(st, "x")
	if err != nil {
		t.Fatalf("read after fault cleared: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("corrupted read after fault cleared")
	}
}

// TestFlakyBackendFailover fails the storage, not the network: a dying SSD
// behind a healthy NIC returns errors, and reads fail over to the replica.
func TestFlakyBackendFailover(t *testing.T) {
	r := newFaultRig(t, 2, ManagerConfig{Replication: 2, SweepInterval: -1})
	st, err := OpenWith(r.mgr.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := pattern(6, 4*testChunk)
	if err := putFile(st, "x", payload); err != nil {
		t.Fatal(err)
	}

	r.backends[0].FailGets(-1)
	defer r.backends[0].FailGets(0)
	got, err := getFile(st, "x")
	if err != nil {
		t.Fatalf("read with flaky backend: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("corrupted read with flaky backend")
	}
	if st.Stats().Failovers == 0 {
		t.Fatal("no failover recorded; primary replicas on benefactor 0 should have failed")
	}
}

// TestDegradedWriteReported writes with one replica holder down: the write
// lands on the survivor, is reported degraded, and reads back intact.
func TestDegradedWriteReported(t *testing.T) {
	r := newFaultRig(t, 2, ManagerConfig{Replication: 2, SweepInterval: -1})
	st, err := OpenWith(r.mgr.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := pattern(8, 2*testChunk)
	if err := putFile(st, "x", payload); err != nil {
		t.Fatal(err)
	}

	r.bens[1].Close()
	if err := st.Manager().MarkDead(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Refresh(); err != nil {
		t.Fatal(err)
	}
	update := pattern(11, testChunk)
	if err := writeFile(st, "x", 0, update); err != nil {
		t.Fatalf("degraded write failed outright: %v", err)
	}
	if st.Stats().DegradedWrites == 0 {
		t.Fatal("write reached fewer than all replicas but was not counted degraded")
	}
	buf := make([]byte, testChunk)
	if err := readFile(st, "x", 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, update) {
		t.Fatal("degraded write lost")
	}
}

// TestServerCloseSeversConnections: pooled client connections to a closed
// benefactor must die with it, or tests (and operators) see a zombie.
func TestServerCloseSeversConnections(t *testing.T) {
	r := newFaultRig(t, 1, ManagerConfig{SweepInterval: -1})
	st, err := OpenWith(r.mgr.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := putFile(st, "x", pattern(2, testChunk)); err != nil {
		t.Fatal(err)
	}
	if _, err := getFile(st, "x"); err != nil { // warm the pool
		t.Fatal(err)
	}
	r.bens[0].Close()
	if _, err := getFile(st, "x"); err == nil {
		t.Fatal("read succeeded against a closed benefactor")
	}
}

func TestBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}.withDefaults()
	for n := 1; n < 20; n++ {
		d := p.backoff(n)
		if d <= 0 {
			t.Fatalf("backoff(%d) = %v, want > 0", n, d)
		}
		if d > p.MaxDelay {
			t.Fatalf("backoff(%d) = %v exceeds cap %v", n, d, p.MaxDelay)
		}
	}
}

func TestReadOrderPrefersHealthyReplicas(t *testing.T) {
	s := &Store{
		opts:         Options{}.withDefaults(),
		benAlive:     map[int]bool{0: false, 1: true, 2: true},
		suspectUntil: map[int]time.Time{2: time.Now().Add(time.Minute)},
	}
	refs := []proto.ChunkRef{
		{ID: 1, Benefactor: 0}, // manager-dead: last
		{ID: 1, Benefactor: 2}, // suspect: middle
		{ID: 1, Benefactor: 1}, // healthy: first
	}
	got := s.readOrder(refs)
	want := []int{1, 2, 0}
	for i, ref := range got {
		if ref.Benefactor != want[i] {
			t.Fatalf("readOrder = %v, want benefactors %v", got, want)
		}
	}
	// Input order is preserved within a rank (primary first).
	same := []proto.ChunkRef{{ID: 1, Benefactor: 4}, {ID: 1, Benefactor: 5}}
	got = s.readOrder(same)
	if got[0].Benefactor != 4 || got[1].Benefactor != 5 {
		t.Fatalf("equal-rank order not stable: %v", got)
	}
}

func TestReplicaRefsFallsBackToPrimary(t *testing.T) {
	fi := proto.FileInfo{
		Chunks:   []proto.ChunkRef{{ID: 10, Benefactor: 0}, {ID: 11, Benefactor: 1}},
		Replicas: [][]proto.ChunkRef{{{ID: 10, Benefactor: 0}, {ID: 10, Benefactor: 2}}},
	}
	if refs := store.ReplicaRefs(fi, 0); len(refs) != 2 {
		t.Fatalf("replicated chunk returned %d refs", len(refs))
	}
	refs := store.ReplicaRefs(fi, 1)
	if len(refs) != 1 || refs[0].ID != 11 {
		t.Fatalf("unreplicated chunk fallback = %v", refs)
	}
}

func TestRetryableOpWhitelist(t *testing.T) {
	for _, op := range []proto.Op{proto.OpLookup, proto.OpStatus, proto.OpRepair, proto.OpBeat} {
		if !retryableOp(op) {
			t.Fatalf("%s should be retryable (idempotent)", op)
		}
	}
	for _, op := range []proto.Op{proto.OpCreate, proto.OpDelete, proto.OpLink, proto.OpRemap, proto.OpDerive} {
		if retryableOp(op) {
			t.Fatalf("%s must not be retried: at-least-once would break its semantics", op)
		}
	}
}

func TestTransientClassification(t *testing.T) {
	if IsTransient(proto.ErrNoSuchChunk) {
		t.Fatal("sentinel errors are terminal, not transient")
	}
	err := transient(errors.New("connection reset"))
	if !IsTransient(err) {
		t.Fatal("wrapped transport error not recognized")
	}
	if !IsTransient(fmt.Errorf("call failed: %w", err)) {
		t.Fatal("transience lost through wrapping")
	}
}

// TestRemapCopyFailureLeavesFileIntact: a copy-on-write remap whose primary
// payload copy fails must fail as a whole — the file keeps its old chunk,
// its bytes, the manager's refcounts and every benefactor's occupancy.
// Publishing the fresh chunk before the copy (as OpRemap once did) left the
// file pointing at a never-written chunk that read back as zeroes.
func TestRemapCopyFailureLeavesFileIntact(t *testing.T) {
	for _, replication := range []int{1, 2} {
		t.Run(fmt.Sprintf("replication=%d", replication), func(t *testing.T) {
			r := newFaultRig(t, 3, ManagerConfig{Replication: replication})
			st, err := OpenWith(r.mgr.Addr(), fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			data := pattern(7, 2*testChunk)
			if err := putFile(st, "var", data); err != nil {
				t.Fatal(err)
			}
			if err := st.Create("ckpt", 0); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Link("ckpt", []string{"var"}); err != nil {
				t.Fatal(err)
			}
			before, err := st.Stat("var")
			if err != nil {
				t.Fatal(err)
			}
			used := func() (u [3]int64) {
				for i, b := range r.bens {
					u[i] = b.Store().Used()
				}
				return u
			}
			usedBefore := used()

			// The fresh primary lands on the old chunk's benefactor; its
			// SSD now refuses writes.
			sick := r.backends[before.Chunks[0].Benefactor]
			sick.FailPuts(-1)
			if _, err := NewStoreClient(st, 0).Remap(nil, "var", 0); err == nil {
				t.Fatal("remap succeeded although the primary copy could not be written")
			}
			sick.FailPuts(0)

			after, err := st.Stat("var")
			if err != nil {
				t.Fatal(err)
			}
			if after.Chunks[0] != before.Chunks[0] {
				t.Fatalf("failed remap moved the file to %v (was %v)", after.Chunks[0], before.Chunks[0])
			}
			if got, err := getFile(st, "var"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("bytes after failed remap differ (err=%v)", err)
			}
			r.mgr.mu.Lock()
			err = r.mgr.mgr.CheckInvariants()
			r.mgr.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if got := used(); got != usedBefore {
				t.Fatalf("benefactor occupancy %v after failed remap, want %v", got, usedBefore)
			}

			// The device recovered: the same remap now goes through.
			fresh, err := NewStoreClient(st, 0).Remap(nil, "var", 0)
			if err != nil {
				t.Fatal(err)
			}
			if fresh[0] == before.Chunks[0] || len(fresh) != replication {
				t.Fatalf("retry returned %v, want a fresh %d-copy set", fresh, replication)
			}
			if got, err := getFile(st, "var"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("bytes after remap differ (err=%v)", err)
			}
		})
	}
}
