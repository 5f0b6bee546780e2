package rpc

import (
	"bytes"
	"testing"
	"time"
)

// TestRemapPatchesCachedMeta: a client's own Remap must leave its cached
// chunk map pointing at the fresh chunk, so the next write lands there
// without a manager round trip — and without corrupting the shared copy.
func TestRemapPatchesCachedMeta(t *testing.T) {
	r := newRig(t, 2)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	payload := bytes.Repeat([]byte("v0"), testChunk/2)
	if err := putFile(st, "f", payload); err != nil {
		t.Fatal(err)
	}
	old, err := st.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	// Share the chunk so Remap actually allocates (refs == 1 is a no-op).
	if err := st.Create("ckpt", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Link("ckpt", []string{"f"}); err != nil {
		t.Fatal(err)
	}

	// The client's cache holds f's pre-remap map and is armed for
	// copy-on-write, as after a checkpoint: its writeback remaps the
	// chunk.
	oldRef := old.Chunks[0] // the cache patches the map it is given in place
	cc := newFileCache(st)
	cc.RegisterMeta(nil, old)
	cc.ArmCOW(nil, "f", "", 0, nil)
	if err := writeThrough(nil, cc, "f", 0, []byte("V1")); err != nil {
		t.Fatal(err)
	}
	cur, err := st.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Chunks[0] == oldRef {
		t.Fatalf("remap of a shared chunk returned the old ref %v", cur.Chunks[0])
	}
	if n := cc.Stats().Remaps; n != 1 {
		t.Fatalf("%d remaps, want 1", n)
	}
	// Disarmed, the next writeback ships through the cached map with no
	// remap: it lands on the fresh chunk only if the map was patched.
	cc.DisarmCOW(nil, "f")
	if err := writeThrough(nil, cc, "f", 2, []byte("V2")); err != nil {
		t.Fatal(err)
	}

	// The writes must hit the fresh chunk and leave the checkpoint's
	// shared copy untouched.
	got, err := getFile(st, "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:4]) != "V1V2" {
		t.Fatalf("read %q through patched meta, want V1V2", got[:4])
	}
	ck, err := getFile(st, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if string(ck[:4]) != "v0v0" {
		t.Fatalf("checkpoint copy mutated to %q — write went to the old chunk", ck[:4])
	}
}

// TestLinkDeriveUpdateCachedMeta: Link and Derive return the new chunk map,
// and a client installs it in its cache (core.Client.RestoreRegion does),
// so immediate reads see the post-link layout without a lookup.
func TestLinkDeriveUpdateCachedMeta(t *testing.T) {
	r := newRig(t, 2)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	payload := bytes.Repeat([]byte("x"), 2*testChunk)
	if err := putFile(st, "part", payload); err != nil {
		t.Fatal(err)
	}
	if err := st.Create("ckpt", 0); err != nil {
		t.Fatal(err)
	}
	pre, err := st.Stat("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	cc := newFileCache(st)
	cc.RegisterMeta(nil, pre) // cache the pre-link (empty) map
	fi, err := st.Link("ckpt", []string{"part"})
	if err != nil {
		t.Fatal(err)
	}
	cc.RegisterMeta(nil, fi)
	got := make([]byte, fi.Size)
	if err := cc.ReadRange(nil, "ckpt", 0, got); err != nil { // must serve from the post-link map
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-link read through cached meta returned wrong data")
	}

	fi, err = NewStoreClient(st, 0).Derive(nil, "slice", "ckpt", 1, 1, testChunk)
	if err != nil {
		t.Fatal(err)
	}
	cc.RegisterMeta(nil, fi)
	sl := make([]byte, fi.Size)
	if err := cc.ReadRange(nil, "slice", 0, sl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sl, payload[testChunk:]) {
		t.Fatal("post-derive read through cached meta returned wrong data")
	}
}

// TestStaleMetaAfterRemapRetried: a client whose cached chunk map predates
// another client's Remap must transparently re-lookup when the old chunk
// is gone — the read is retried with fresh metadata, never failed and
// never served from a dangling reference.
func TestStaleMetaAfterRemapRetried(t *testing.T) {
	r := newRig(t, 2)
	a, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	v0 := bytes.Repeat([]byte("0"), testChunk)
	if err := putFile(b, "f", v0); err != nil {
		t.Fatal(err)
	}
	// Client a's cache holds f's chunk map, and none of its chunks.
	stale, err := a.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	ca := newFileCache(a)
	ca.RegisterMeta(nil, stale)

	// Client b shares the chunk, remaps it copy-on-write, overwrites the
	// variable, then deletes the checkpoint — dropping the OLD chunk's
	// last reference, so the benefactor discards it.
	if err := b.Create("ckpt", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Link("ckpt", []string{"f"}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStoreClient(b, 0).Remap(nil, "f", 0); err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte("1"), testChunk)
	if err := writeFile(b, "f", 0, v1); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("ckpt"); err != nil {
		t.Fatal(err)
	}
	// Chunk deletion flows through the manager's benefactor connections;
	// wait until only f's fresh chunk occupies space.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.bens[0].Store().Used()+r.bens[1].Store().Used() == testChunk {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// a's cached map now dangles: the read must retry with fresh metadata
	// and serve b's new data.
	got := make([]byte, testChunk)
	if err := ca.ReadRange(nil, "f", 0, got); err != nil {
		t.Fatalf("read with stale meta failed instead of retrying: %v", err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatalf("read served stale data (got %q...)", got[:1])
	}
	if ca.Stats().MetaRetries == 0 {
		t.Fatal("expected a metadata retry, got none (stale map silently served?)")
	}
}
