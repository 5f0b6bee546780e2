package rpc

import (
	"bytes"
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/store"
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

// newFileCache returns an empty chunk cache over st: the byte path every
// TCP client runs (nvmalloc.Connect builds the same stack), with
// read-ahead off so that a read fetches exactly the chunks it covers. Its
// counters land on st's registry, where they add up across caches.
func newFileCache(st *Store) *fusecache.ChunkCache {
	return fusecache.NewChunkCache(store.NewGoEnv(), NewStoreClient(st, 0), fusecache.Config{
		ChunkSize:  st.ChunkSize(),
		PageSize:   512,
		CacheBytes: 64 * st.ChunkSize(),
		Obs:        st.Obs(),
	})
}

// The file helpers run each call on a fresh cache from newFileCache, so
// every read crosses the wire and every write has reached the benefactors
// when the call returns.

// PutFile and GetFile lend putFile and getFile to the rpc_test package.
var (
	PutFile = putFile
	GetFile = getFile
)

// putFile stores data as a new file: Create, then a write of the whole
// payload. The cache knows the created chunks are zero, so the write
// fetches nothing.
func putFile(st *Store, name string, data []byte) error {
	return putFileCtx(nil, st, name, data)
}

func putFileCtx(ctx store.Ctx, st *Store, name string, data []byte) error {
	cc := newFileCache(st)
	fi, err := cc.Store().Create(ctx, name, int64(len(data)))
	if err != nil {
		return err
	}
	cc.MarkFresh(ctx, fi)
	return writeThrough(ctx, cc, name, 0, data)
}

// writeFile writes data into an existing file at off.
func writeFile(st *Store, name string, off int64, data []byte) error {
	return writeThrough(nil, newFileCache(st), name, off, data)
}

func writeThrough(ctx store.Ctx, cc *fusecache.ChunkCache, name string, off int64, data []byte) error {
	if err := cc.WriteRange(ctx, name, off, data); err != nil {
		return err
	}
	return cc.FlushAll(ctx)
}

// getFile reads a whole file.
func getFile(st *Store, name string) ([]byte, error) {
	return getFileCtx(nil, st, name)
}

func getFileCtx(ctx store.Ctx, st *Store, name string) ([]byte, error) {
	cc := newFileCache(st)
	fi, err := cc.Store().Lookup(ctx, name)
	if err != nil {
		return nil, err
	}
	cc.RegisterMeta(ctx, fi)
	buf := make([]byte, fi.Size)
	return buf, cc.ReadRange(ctx, name, 0, buf)
}

// readFile fills buf from the file at off.
func readFile(st *Store, name string, off int64, buf []byte) error {
	return newFileCache(st).ReadRange(nil, name, off, buf)
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
	if err := putFile(st, "hello", payload); err != nil {
		t.Fatal(err)
	}
	got, err := getFile(st, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
	// Unaligned in-place update.
	if err := writeFile(st, "hello", 5000, []byte("PATCH")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := readFile(st, "hello", 5000, buf); err != nil {
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
	if err := putFile(st, "wide", make([]byte, 8*testChunk)); err != nil {
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
	if err := putFile(st, "f", make([]byte, 4*testChunk)); err != nil {
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
	if err := putFile(st, "var", orig); err != nil {
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
	if err := writeFile(st, "var", 0, []byte{0xCD}); err != nil { // looks up the remapped ref
		t.Fatal(err)
	}
	// The checkpoint still holds the original bytes.
	ck, err := getFile(st, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if ck[0] != 0xAB {
		t.Fatal("checkpoint corrupted by post-link write")
	}
	v, err := getFile(st, "var")
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
	if err := putFile(st, "disk", payload); err != nil {
		t.Fatal(err)
	}
	got, err := getFile(st, "disk")
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
	if err := putFile(st, "var", payload); err != nil {
		t.Fatal(err)
	}
	// A derived file references chunks 1..2 of var without copying.
	if _, err := st.Manager().Derive("view", "var", 1, 2, 2*testChunk); err != nil {
		t.Fatal(err)
	}
	got, err := getFile(st, "view")
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
	if _, err := getFile(st, "view"); err != nil {
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
	if err := putFile(st, "tmp", make([]byte, testChunk)); err != nil {
		t.Fatal(err)
	}
	if err := putFile(st, "keep", make([]byte, testChunk)); err != nil {
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
