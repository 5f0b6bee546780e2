package rpc

import (
	"bytes"
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
)

const testChunk = 4096

// rig spins up a manager and n in-memory benefactors on loopback.
type rig struct {
	mgr  *ManagerServer
	bens []*BenefactorServer
}

func newRig(t testing.TB, n int) *rig {
	t.Helper()
	ms, err := NewManagerServer("127.0.0.1:0", testChunk, manager.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{mgr: ms}
	t.Cleanup(func() { ms.Close() })
	for i := 0; i < n; i++ {
		bs, err := NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 64*testChunk, testChunk, benefactor.NewMem(), 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		r.bens = append(r.bens, bs)
		t.Cleanup(func() { bs.Close() })
	}
	return r
}

func TestTCPStoreRoundTrip(t *testing.T) {
	r := newRig(t, 3)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.ChunkSize() != testChunk {
		t.Fatalf("chunk size %d", st.ChunkSize())
	}
	payload := bytes.Repeat([]byte("nvmalloc!"), 2000) // ~17.6 KB, crosses chunks
	if err := st.Put("hello", payload); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("hello")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
	// Unaligned in-place update.
	if err := st.WriteAt("hello", 5000, []byte("PATCH")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := st.ReadAt("hello", 5000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "PATCH" {
		t.Fatalf("patch read %q", buf)
	}
}

func TestTCPStoreStripesAcrossBenefactors(t *testing.T) {
	r := newRig(t, 4)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("wide", make([]byte, 8*testChunk)); err != nil {
		t.Fatal(err)
	}
	fi, err := st.Stat("wide")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, ref := range fi.Chunks {
		seen[ref.Benefactor] = true
	}
	if len(seen) != 4 {
		t.Fatalf("striped across %d benefactors, want 4", len(seen))
	}
}

func TestTCPDeleteFreesSpace(t *testing.T) {
	r := newRig(t, 2)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("f", make([]byte, 4*testChunk)); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("f"); err != nil {
		t.Fatal(err)
	}
	// Poll briefly: deletion happens via the manager's benefactor conns.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		total := r.bens[0].Store().Used() + r.bens[1].Store().Used()
		if total == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("benefactor space not released after delete")
}

func TestTCPLinkAndCOW(t *testing.T) {
	r := newRig(t, 2)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	orig := bytes.Repeat([]byte{0xAB}, 2*testChunk)
	if err := st.Put("var", orig); err != nil {
		t.Fatal(err)
	}
	if err := st.Create("ckpt", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Manager().Link("ckpt", []string{"var"}); err != nil {
		t.Fatal(err)
	}
	// COW remap of chunk 0 before modifying it.
	if _, err := st.Manager().Remap("var", 0); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	delete(st.meta, "var") // pick up the remapped chunk ref
	st.mu.Unlock()
	if err := st.WriteAt("var", 0, []byte{0xCD}); err != nil {
		t.Fatal(err)
	}
	// The checkpoint still holds the original bytes.
	ck, err := st.Get("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if ck[0] != 0xAB {
		t.Fatal("checkpoint corrupted by post-link write")
	}
	v, err := st.Get("var")
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 0xCD {
		t.Fatal("variable lost its write")
	}
}

func TestTCPFileBackend(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewManagerServer("127.0.0.1:0", testChunk, manager.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	bs, err := NewBenefactorServer("127.0.0.1:0", ms.Addr(), 0, 0, 64*testChunk, testChunk, fb, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	st, err := Open(ms.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := bytes.Repeat([]byte{7}, testChunk+100)
	if err := st.Put("disk", payload); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("disk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("file-backend round trip mismatch")
	}
}

func TestHeartbeatKeepsBenefactorAlive(t *testing.T) {
	r := newRig(t, 1)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	time.Sleep(150 * time.Millisecond) // a few heartbeat periods
	bens, err := st.Manager().Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(bens) != 1 || !bens[0].Alive {
		t.Fatalf("benefactor state: %+v", bens)
	}
}

func TestWireErrSentinels(t *testing.T) {
	if proto.WireErr(proto.ErrNoSuchFile.Error()) != proto.ErrNoSuchFile {
		t.Fatal("sentinel not restored")
	}
	if proto.WireErr("") != nil {
		t.Fatal("empty error should be nil")
	}
	if proto.WireErr("boom") == nil {
		t.Fatal("unknown error lost")
	}
}

func TestTCPDeriveSharesChunks(t *testing.T) {
	r := newRig(t, 2)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := bytes.Repeat([]byte{0x5A}, 3*testChunk)
	if err := st.Put("var", payload); err != nil {
		t.Fatal(err)
	}
	// A derived file references chunks 1..2 of var without copying.
	if _, err := st.Manager().Derive("view", "var", 1, 2, 2*testChunk); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("view")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*testChunk || got[0] != 0x5A {
		t.Fatalf("derived view wrong: %d bytes", len(got))
	}
	// Deleting the original keeps the shared chunks alive for the view.
	if err := st.Delete("var"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("view"); err != nil {
		t.Fatalf("view lost after source delete: %v", err)
	}
}

func TestTCPLifetimeExpiry(t *testing.T) {
	r := newRig(t, 1)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("tmp", make([]byte, testChunk)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("keep", make([]byte, testChunk)); err != nil {
		t.Fatal(err)
	}
	// Expire "tmp" almost immediately (1ns after manager start).
	if err := st.Manager().SetTTL("tmp", time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	expired, err := st.Manager().Expire()
	if err != nil {
		t.Fatal(err)
	}
	if len(expired) != 1 || expired[0] != "tmp" {
		t.Fatalf("expired = %v, want [tmp]", expired)
	}
	if _, err := st.Stat("tmp"); err != proto.ErrNoSuchFile {
		t.Fatalf("tmp survived expiry: %v", err)
	}
	if _, err := st.Stat("keep"); err != nil {
		t.Fatalf("keep lost: %v", err)
	}
}
