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
	if _, err := st.Link("ckpt", []string{"var"}); err != nil {
		t.Fatal(err)
	}
	// COW remap of chunk 0 before modifying it.
	if _, err := NewStoreClient(st, 0).Remap(nil, "var", 0); err != nil {
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

// TestLinkUnalignedParts links a 1.5-chunk part and a 0.5-chunk part into
// an empty destination. Each part starts at a chunk boundary, so the
// second lands at chunk 2 and the linked file is 2.5 chunks long; a cold
// cache reads each part back at its aligned offset. The sharded run puts
// the parts on different shards, so the size travels through OpLinkRefs.
func TestLinkUnalignedParts(t *testing.T) {
	a := pattern(0x11, testChunk+testChunk/2)
	b := pattern(0x22, testChunk/2)
	link := func(t *testing.T, st *Store, dst, pa, pb string) {
		t.Helper()
		for name, data := range map[string][]byte{pa: a, pb: b} {
			if err := putFile(st, name, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Create(dst, 0); err != nil {
			t.Fatal(err)
		}
		fi, err := st.Link(dst, []string{pa, pb})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(2*testChunk + len(b)); fi.Size != want {
			t.Fatalf("linked size %d, want %d", fi.Size, want)
		}
		for _, p := range []struct {
			off  int64
			want []byte
		}{{0, a}, {2 * testChunk, b}} {
			got := make([]byte, len(p.want))
			if err := readFile(st, dst, p.off, got); err != nil {
				t.Fatalf("read at %d: %v", p.off, err)
			}
			if !bytes.Equal(got, p.want) {
				t.Fatalf("part at offset %d read back wrong", p.off)
			}
		}
	}
	t.Run("unsharded", func(t *testing.T) {
		r := newRig(t, 2)
		st, err := Open(r.mgr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		link(t, st, "ckpt", "pa", "pb")
	})
	t.Run("sharded", func(t *testing.T) {
		r := newShardRig(t, 2, 2, ManagerConfig{})
		st, err := OpenWith(r.allAddrs(), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		link(t, st, nameOn(t, "ckpt", 1, 2), nameOn(t, "pa", 0, 2), nameOn(t, "pb", 1, 2))
		checkShardInvariants(t, r)
	})
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
	if _, err := NewStoreClient(st, 0).Derive(nil, "view", "var", 1, 2, 2*testChunk); err != nil {
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

// TestDeriveSizeMustFitChunks: a derived file's size must fit the chunks
// it shares. A size past them, or a negative one, is refused by OpLinkRefs
// at one shard and at two, and the manager's invariants hold afterwards.
func TestDeriveSizeMustFitChunks(t *testing.T) {
	derive := func(t *testing.T, st *Store, view, src string) {
		t.Helper()
		if err := putFile(st, src, pattern(0x33, 3*testChunk)); err != nil {
			t.Fatal(err)
		}
		for _, size := range []int64{5 * testChunk, -5} {
			if fi, err := NewStoreClient(st, 0).Derive(nil, view, src, 1, 1, size); err == nil {
				t.Fatalf("derive of 1 chunk with size %d succeeded: %+v", size, fi)
			}
			if _, err := st.Stat(view); err != proto.ErrNoSuchFile {
				t.Fatalf("refused derive of size %d left %q behind: %v", size, view, err)
			}
		}
	}
	t.Run("unsharded", func(t *testing.T) {
		r := newRig(t, 2)
		st, err := Open(r.mgr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		derive(t, st, "view", "var")
		r.mgr.mu.Lock()
		err = r.mgr.mgr.CheckInvariants()
		r.mgr.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		r := newShardRig(t, 2, 2, ManagerConfig{})
		st, err := OpenWith(r.allAddrs(), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		derive(t, st, nameOn(t, "view", 1, 2), nameOn(t, "var", 0, 2))
		checkShardInvariants(t, r)
	})
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
	// Expire "tmp" almost immediately (1ns past the manager's clock now).
	if err := NewStoreClient(st, 0).SetTTL(nil, "tmp", time.Nanosecond); err != nil {
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
