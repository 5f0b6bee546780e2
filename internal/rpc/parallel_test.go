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
// mixed aligned and unaligned ReadAt/WriteAt against several benefactors,
// then verifies byte-exact contents. Each goroutine owns a disjoint
// chunk-aligned region of the shared file, so the expected final image is
// deterministic while the connection pools and fan-out workers are shared
// (and contended) across all goroutines. Run with -race.
func TestTCPStoreConcurrentMixed(t *testing.T) {
	const (
		goroutines      = 8
		chunksPerWorker = 4
		iters           = 15
	)
	r := newRig(t, 3)
	st, err := OpenWith(r.mgr.Addr(), Options{PoolSize: 3, Parallelism: 6})
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
				if err := st.WriteAt("shared", base, mine); err != nil {
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
					if err := st.WriteAt("shared", base+off, patch); err != nil {
						errs <- err
						return
					}
				}
				// Unaligned read-back of a random slice.
				off := int64(rng.Intn(int(region) - 900))
				n := 1 + rng.Intn(900)
				got := make([]byte, n)
				if err := st.ReadAt("shared", base+off, got); err != nil {
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

	got, err := st.Get("shared")
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
	if err := a.Put("f", v1); err != nil {
		t.Fatal(err)
	}
	// a's meta cache is warm from Put. b deletes and recreates the file;
	// the manager hands out fresh chunk IDs and the old ones are
	// tombstoned on their benefactors.
	v2 := bytes.Repeat([]byte{0x22}, 2*testChunk)
	if err := b.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("f", v2); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, len(v2))
	if err := a.ReadAt("f", 0, buf); err != nil {
		t.Fatalf("stale read not retried: %v", err)
	}
	if !bytes.Equal(buf, v2) {
		t.Fatal("retry read returned stale or mixed data")
	}
	if a.Stats().MetaRetries == 0 {
		t.Fatal("no meta retry recorded; test exercised nothing")
	}

	// Same transparency for writes.
	if err := b.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("f", v1); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteAt("f", 5, []byte("fresh")); err != nil {
		t.Fatalf("stale write not retried: %v", err)
	}
	got, err := b.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got[5:10]) != "fresh" {
		t.Fatal("retried write lost")
	}
}

// TestCachedStoreDirtyPageWriteback asserts the Table VII effect on the
// real TCP path: sparse writes through the cache ship only dirty pages on
// flush, so far fewer SSD bytes travel than with whole-chunk writeback.
func TestCachedStoreDirtyPageWriteback(t *testing.T) {
	const (
		page      = 256
		nChunks   = 8
		sparsePer = 2 // dirty pages per chunk
	)
	run := func(fullChunks bool) (ssdWrite int64) {
		r := newRig(t, 3)
		st, err := OpenWith(r.mgr.Addr(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		cache, err := NewCachedStore(st, CacheConfig{
			CacheBytes:      nChunks * testChunk,
			PageSize:        page,
			WriteFullChunks: fullChunks,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		if err := cache.Create("v", nChunks*testChunk); err != nil {
			t.Fatal(err)
		}
		// Sparse workload: a few pages per chunk.
		for c := 0; c < nChunks; c++ {
			for p := 0; p < sparsePer; p++ {
				off := int64(c)*testChunk + int64(p)*7*page
				if err := cache.WriteAt("v", off, bytes.Repeat([]byte{0xEE}, page)); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := st.Stats().SSDWriteBytes
		if before != 0 {
			t.Fatalf("cache leaked %d bytes to SSD before flush", before)
		}
		if err := cache.Flush("v"); err != nil {
			t.Fatal(err)
		}
		return st.Stats().SSDWriteBytes
	}

	sparse := run(false)
	full := run(true)
	wantSparse := int64(nChunks * sparsePer * page)
	if sparse != wantSparse {
		t.Fatalf("dirty-page flush shipped %d bytes, want %d", sparse, wantSparse)
	}
	if full != int64(nChunks*testChunk) {
		t.Fatalf("whole-chunk flush shipped %d bytes, want %d", full, nChunks*testChunk)
	}
	if sparse >= full {
		t.Fatalf("dirty-page writeback (%d B) not cheaper than whole-chunk (%d B)", sparse, full)
	}
}

// TestCachedStoreHitsAndReadAhead checks the cache serves repeated reads
// without SSD traffic and that sequential misses trigger prefetch.
func TestCachedStoreHitsAndReadAhead(t *testing.T) {
	r := newRig(t, 3)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCachedStore(st, CacheConfig{
		CacheBytes:      32 * testChunk,
		PageSize:        256,
		ReadAheadChunks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	payload := bytes.Repeat([]byte{0x3C}, 8*testChunk)
	if err := cache.Put("seq", payload); err != nil {
		t.Fatal(err)
	}
	if err := cache.Flush("seq"); err != nil {
		t.Fatal(err)
	}

	// Sequential chunk-by-chunk read.
	buf := make([]byte, testChunk)
	for c := 0; c < 8; c++ {
		if err := cache.ReadAt("seq", int64(c)*testChunk, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0x3C {
			t.Fatalf("chunk %d corrupt", c)
		}
	}
	s := cache.Stats()
	if s.Hits == 0 {
		t.Fatalf("no cache hits on re-read of resident chunks: %+v", s)
	}
	// All 8 chunks were written through the cache, so reads should have hit
	// without any SSD read traffic at all.
	if got := st.Stats().SSDReadBytes; got != 0 {
		t.Fatalf("resident reads still pulled %d bytes from SSD", got)
	}

	// Evict everything by filling the cache with another file, then stream
	// again: sequential misses should prefetch.
	if err := cache.Put("filler", make([]byte, 32*testChunk)); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 8; c++ {
		if err := cache.ReadAt("seq", int64(c)*testChunk, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := cache.Stats().PrefetchBytes; got == 0 {
		t.Fatal("sequential re-read triggered no read-ahead")
	}
}

// TestCachedStoreReadAheadOneChunkCache: a cache with room for a single
// chunk has none for speculation, and a sequential sweep through it must
// never copy out of a buffer read-ahead recycled.
func TestCachedStoreReadAheadOneChunkCache(t *testing.T) {
	r := newRig(t, 3)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCachedStore(st, CacheConfig{CacheBytes: testChunk, PageSize: 256, ReadAheadChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	const chunks = 16
	payload := make([]byte, chunks*testChunk)
	for i := range payload {
		payload[i] = byte(i/testChunk + 1)
	}
	if err := cache.Put("tiny", payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, testChunk)
	for pass := 0; pass < 20; pass++ {
		for c := 0; c < chunks; c++ {
			if err := cache.ReadAt("tiny", int64(c)*testChunk, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, payload[c*testChunk:(c+1)*testChunk]) {
				t.Fatalf("pass %d chunk %d reads %d…, want %d", pass, c, buf[0], c+1)
			}
		}
	}
}

// TestCachedStoreReadAheadConcurrentStreams sweeps four files from four
// goroutines through one undersized cache with read-ahead on, while a fifth
// creates, reads and deletes short-lived files: stream state, the
// speculative budget and the Drop fence are all shared. Run with -race.
func TestCachedStoreReadAheadConcurrentStreams(t *testing.T) {
	const (
		streams = 4
		chunks  = 16
		passes  = 4
	)
	r := newRig(t, 3)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCachedStore(st, CacheConfig{CacheBytes: 12 * testChunk, PageSize: 256, ReadAheadChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	image := func(tag byte) []byte {
		img := make([]byte, chunks*testChunk)
		for i := range img {
			img[i] = tag + byte(i/testChunk)
		}
		return img
	}
	sweep := func(name string, want []byte) error {
		buf := make([]byte, testChunk)
		for c := 0; c < len(want)/testChunk; c++ {
			if err := cache.ReadAt(name, int64(c)*testChunk, buf); err != nil {
				return err
			}
			if !bytes.Equal(buf, want[c*testChunk:(c+1)*testChunk]) {
				return fmt.Errorf("%s chunk %d reads %d…, want %d", name, c, buf[0], want[c*testChunk])
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, streams+1)
	for g := 0; g < streams; g++ {
		name, img := fmt.Sprintf("s%d", g), image(byte(16*g))
		if err := cache.Put(name, img); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < passes; pass++ {
				if err := sweep(name, img); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3*passes; i++ {
			// The same name each round, different bytes: read-ahead that
			// outlived a Delete would serve the previous round's.
			img := image(byte(100 + i))[:4*testChunk]
			if err := cache.Put("tmp", img); err != nil {
				errs <- err
				return
			}
			if err := cache.Flush("tmp"); err != nil {
				errs <- err
				return
			}
			cache.Drop("tmp")
			if err := sweep("tmp", img[:2*testChunk]); err != nil {
				errs <- err
				return
			}
			if err := cache.Delete("tmp"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := cache.Stats()
	if s.PrefetchBytes == 0 || s.PrefetchWasted > s.PrefetchBytes {
		t.Fatalf("read ahead %d B, wasted %d B", s.PrefetchBytes, s.PrefetchWasted)
	}
}

// TestCachedStoreConcurrent drives one CachedStore from many goroutines
// (disjoint chunk-aligned regions) and checks the final image, exercising
// eviction and flush under concurrency. Run with -race.
func TestCachedStoreConcurrent(t *testing.T) {
	const goroutines = 6
	r := newRig(t, 3)
	st, err := OpenWith(r.mgr.Addr(), Options{PoolSize: 2, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Undersized cache so eviction writebacks happen mid-run.
	cache, err := NewCachedStore(st, CacheConfig{CacheBytes: 4 * testChunk, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	region := int64(3) * testChunk
	total := goroutines * region
	if err := cache.Create("v", total); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, total)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			base := int64(g) * region
			mine := want[base : base+region]
			for it := 0; it < 10; it++ {
				off := int64(rng.Intn(int(region) - 600))
				n := 1 + rng.Intn(600)
				patch := make([]byte, n)
				rng.Read(patch)
				copy(mine[off:], patch)
				if err := cache.WriteAt("v", base+off, patch); err != nil {
					errs <- err
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
	if err := cache.Flush("v"); err != nil {
		t.Fatal(err)
	}
	// Read back uncached to see exactly what the benefactors hold.
	st2, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Get("v")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("flushed contents not byte-exact after concurrent cached writes")
	}
}

// TestCachedStorePartialPagesConcurrent drives one undersized CachedStore
// with a file tier from four goroutines on disjoint regions of a file that
// starts out on the benefactors: whole-page writes install partly valid
// entries without fetching, unaligned bulk writes and reads fill them, Flush
// ships them, and eviction spills whole chunks only. Every read and the
// final image must be byte-exact. Run with -race.
func TestCachedStorePartialPagesConcurrent(t *testing.T) {
	const (
		goroutines = 4
		page       = 256
		iters      = 60
	)
	r := newRig(t, 3)
	st, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCachedStore(st, CacheConfig{
		CacheBytes:      4 * testChunk,
		PageSize:        page,
		ReadAheadChunks: 2,
		CacheDir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	region := int64(3) * testChunk
	want := make([]byte, goroutines*region)
	rand.New(rand.NewSource(1)).Read(want)
	if err := st.Put("v", want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			base := int64(g) * region
			mine := want[base : base+region]
			for it := 0; it < iters; it++ {
				op := rng.Intn(4)
				off := rng.Int63n(region)
				n := 1 + rng.Int63n(testChunk+page)
				if op == 0 { // whole pages, as the page layer writes
					off -= off % page
					n = page * (1 + rng.Int63n(8))
				}
				n = min(n, region-off)
				var err error
				switch op {
				case 0, 1:
					patch := make([]byte, n)
					rng.Read(patch)
					copy(mine[off:], patch)
					err = cache.WriteAt("v", base+off, patch)
				case 2:
					got := make([]byte, n)
					if err = cache.ReadAt("v", base+off, got); err == nil && !bytes.Equal(got, mine[off:off+n]) {
						err = fmt.Errorf("goroutine %d iter %d: read [%d,+%d) mismatch", g, it, off, n)
					}
				case 3:
					err = cache.Flush("v")
				}
				if err != nil {
					errs <- err
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
	if err := cache.Flush("v"); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(r.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Get("v")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("flushed contents not byte-exact after concurrent partial-page writes")
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

// TestPoolBoundsConnections verifies the pool never dials more than its
// size even under heavy fan-out.
func TestPoolBoundsConnections(t *testing.T) {
	r := newRig(t, 1)
	st, err := OpenWith(r.mgr.Addr(), Options{PoolSize: 2, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("f", make([]byte, 16*testChunk)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16*testChunk)
	if err := st.ReadAt("f", 0, buf); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	p := st.pools[0]
	st.mu.Unlock()
	if p == nil {
		t.Fatal("no pool created for benefactor 0")
	}
	if n := len(p.free); n != cap(p.free) || cap(p.free) != 2 {
		t.Fatalf("pool slots %d/%d, want 2/2 idle", n, cap(p.free))
	}
	live := 0
	for i := 0; i < cap(p.free); i++ {
		c := <-p.free
		if c != nil {
			live++
			c.close()
		}
		p.free <- nil
	}
	if live == 0 || live > 2 {
		t.Fatalf("%d live connections, want 1..2", live)
	}
	// Proto sanity: the fan-out math never exceeded the per-call bound.
	if peak := st.Stats().InFlightPeak; peak > 8 {
		t.Fatalf("in-flight peak %d exceeds parallelism 8", peak)
	}
}

func TestWireErrChunkSentinel(t *testing.T) {
	if wireErr(proto.ErrNoSuchChunk.Error()) != proto.ErrNoSuchChunk {
		t.Fatal("ErrNoSuchChunk not restored across the wire")
	}
}
