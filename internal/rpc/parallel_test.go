package rpc

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nvmalloc/internal/proto"
)

// TestTCPStoreConcurrentMixed hammers one Store from many goroutines doing
// mixed aligned and unaligned reads and writes against several
// benefactors, then verifies byte-exact contents. Each goroutine owns a
// disjoint chunk-aligned region of the shared file, so the expected final
// image is deterministic while the connection pools are shared (and
// contended) across all goroutines. Run with -race.
func TestTCPStoreConcurrentMixed(t *testing.T) {
	const (
		goroutines      = 8
		chunksPerWorker = 4
		iters           = 15
	)
	r := newRig(t, 3)
	st, err := OpenWith(r.mgr.Addr(), Options{PoolSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	region := int64(chunksPerWorker) * testChunk
	total := goroutines * region
	if err := st.Create("shared", total); err != nil {
		t.Fatal(err)
	}

	want := make([]byte, total)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			base := int64(g) * region
			mine := want[base : base+region]
			for it := 0; it < iters; it++ {
				// Aligned whole-region rewrite.
				fill := byte(g<<4 | it&0xF)
				for i := range mine {
					mine[i] = fill
				}
				if err := writeFile(st, "shared", base, mine); err != nil {
					errs <- err
					return
				}
				// A few unaligned sub-writes at odd offsets and lengths.
				for k := 0; k < 4; k++ {
					off := int64(rng.Intn(int(region) - 700))
					n := 1 + rng.Intn(700)
					patch := make([]byte, n)
					rng.Read(patch)
					copy(mine[off:], patch)
					if err := writeFile(st, "shared", base+off, patch); err != nil {
						errs <- err
						return
					}
				}
				// Unaligned read-back of a random slice.
				off := int64(rng.Intn(int(region) - 900))
				n := 1 + rng.Intn(900)
				got := make([]byte, n)
				if err := readFile(st, "shared", base+off, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, mine[off:off+int64(n)]) {
					errs <- fmt.Errorf("goroutine %d iter %d: mid-run read mismatch at %d+%d", g, it, off, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got, err := getFile(st, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("final contents not byte-exact after concurrent mixed I/O")
	}
	if peak := st.Stats().InFlightPeak; peak < 2 {
		t.Fatalf("in-flight peak %d; fan-out never overlapped transfers", peak)
	}
}

// TestStaleMetaRetry recreates a file behind a client's back: the client's
// cached chunk map points at tombstoned chunks, so the first access fails
// benefactor-side with ErrNoSuchChunk and the client must re-Lookup and
// retry transparently.
func TestStaleMetaRetry(t *testing.T) {
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

	v1 := bytes.Repeat([]byte{0x11}, 2*testChunk)
	if err := putFile(a, "f", v1); err != nil {
		t.Fatal(err)
	}
	// a's cache holds f's chunk map, as after the put, and none of its
	// chunks. b deletes and recreates the file; the manager hands out
	// fresh chunk IDs and the old ones are tombstoned on their
	// benefactors.
	stale, err := a.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	v2 := bytes.Repeat([]byte{0x22}, 2*testChunk)
	if err := b.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if err := putFile(b, "f", v2); err != nil {
		t.Fatal(err)
	}

	ca := newFileCache(a)
	ca.RegisterMeta(nil, stale)
	buf := make([]byte, len(v2))
	if err := ca.ReadRange(nil, "f", 0, buf); err != nil {
		t.Fatalf("stale read not retried: %v", err)
	}
	if !bytes.Equal(buf, v2) {
		t.Fatal("retry read returned stale or mixed data")
	}
	if ca.Stats().MetaRetries == 0 {
		t.Fatal("no meta retry recorded; test exercised nothing")
	}

	// Same transparency for writes: an unaligned write reads the chunk
	// through the stale map first.
	if stale, err = a.Stat("f"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if err := putFile(b, "f", v1); err != nil {
		t.Fatal(err)
	}
	cw := newFileCache(a)
	cw.RegisterMeta(nil, stale)
	if err := writeThrough(nil, cw, "f", 5, []byte("fresh")); err != nil {
		t.Fatalf("stale write not retried: %v", err)
	}
	got, err := getFile(b, "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got[5:10]) != "fresh" {
		t.Fatal("retried write lost")
	}

	// And for fills: a whole-page write installs a chunk without reading
	// it, and a read of the rest then fills it through the stale map.
	if stale, err = a.Stat("f"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if err := putFile(b, "f", v2); err != nil {
		t.Fatal(err)
	}
	cf := newFileCache(a)
	cf.RegisterMeta(nil, stale)
	page := bytes.Repeat([]byte{0x33}, 512)
	if err := cf.WriteRange(nil, "f", 0, page); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, testChunk)
	if err := cf.ReadRange(nil, "f", 0, got); err != nil {
		t.Fatalf("stale fill not retried: %v", err)
	}
	if !bytes.Equal(got[:len(page)], page) || !bytes.Equal(got[len(page):], v2[len(page):testChunk]) {
		t.Fatal("retried fill lost the written page or served stale data")
	}
}

// TestFileBackendAtomicPut hammers one chunk file with concurrent whole-
// chunk rewrites while readers check they only ever observe a complete
// payload (all-old or all-new) — the temp-file + rename guarantee.
func TestFileBackendAtomicPut(t *testing.T) {
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const size = 64 << 10
	mk := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
	if err := fb.Put(1, mk(0)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := fb.Put(1, mk(byte(w*50+i%50))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		d, err := fb.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(d) != size {
			t.Fatalf("torn read: %d bytes", len(d))
		}
		first := d[0]
		for _, c := range d {
			if c != first {
				t.Fatalf("torn read: mixed payload bytes %d and %d", first, c)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestWireErrChunkSentinel(t *testing.T) {
	if proto.WireErr(proto.ErrNoSuchChunk.Error()) != proto.ErrNoSuchChunk {
		t.Fatal("ErrNoSuchChunk not restored across the wire")
	}
}
