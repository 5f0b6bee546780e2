package rpc_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nvmalloc"
	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/store"
)

// The tests and benchmarks below drive the chunk cache of a facade Client
// built by nvmalloc.ConnectStore over an rpc.Store, one
// ChunkCache.ReadRange/WriteRange per operation, so no page cache enters
// what they measure.

const testChunk = 4096

// cacheRig starts a manager and n in-memory benefactors on loopback at
// testChunk chunks and replication 1, and returns the manager's address.
func cacheRig(tb testing.TB, n int) string {
	tb.Helper()
	ms, err := rpc.NewManagerServer("127.0.0.1:0", testChunk, manager.RoundRobin)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ms.Close() })
	for i := 0; i < n; i++ {
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 64*testChunk, testChunk, benefactor.NewMem(), 50*time.Millisecond)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { bs.Close() })
	}
	return ms.Addr()
}

// openStore opens an rpc.Store on addr with opts.
func openStore(tb testing.TB, addr string, opts rpc.Options) *rpc.Store {
	tb.Helper()
	st, err := rpc.OpenWith(addr, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// connectCached builds a Client over st; the Client owns st from here on
// and is closed at cleanup.
func connectCached(tb testing.TB, st *rpc.Store, cfg nvmalloc.ConnectConfig) (*nvmalloc.Client, *fusecache.ChunkCache) {
	tb.Helper()
	c, err := nvmalloc.ConnectStore(st, cfg)
	if err != nil {
		st.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c, c.ChunkCache()
}

// putCached creates name through c, so its chunks are known-zero to the
// cache, and writes data into it with one WriteRange. Nothing reaches a
// benefactor before a flush or an eviction.
func putCached(c *nvmalloc.Client, name string, data []byte) (*nvmalloc.Region, error) {
	r, err := c.Malloc(nil, int64(len(data)), nvmalloc.WithName(name))
	if err != nil {
		return nil, err
	}
	return r, c.ChunkCache().WriteRange(nil, name, 0, data)
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
		st := openStore(t, cacheRig(t, 3), rpc.Options{})
		cl, cache := connectCached(t, st, nvmalloc.ConnectConfig{
			CacheBytes:      nChunks * testChunk,
			PageSize:        page,
			ReadAheadChunks: -1,
			WriteFullChunks: fullChunks,
		})
		if _, err := cl.Malloc(nil, nChunks*testChunk, nvmalloc.WithName("v")); err != nil {
			t.Fatal(err)
		}
		// Sparse workload: a few pages per chunk.
		for c := 0; c < nChunks; c++ {
			for p := 0; p < sparsePer; p++ {
				off := int64(c)*testChunk + int64(p)*7*page
				if err := cache.WriteRange(nil, "v", off, bytes.Repeat([]byte{0xEE}, page)); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := st.Stats().SSDWriteBytes
		if before != 0 {
			t.Fatalf("cache leaked %d bytes to SSD before flush", before)
		}
		if err := cache.Flush(nil, "v"); err != nil {
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
	st := openStore(t, cacheRig(t, 3), rpc.Options{})
	cl, cache := connectCached(t, st, nvmalloc.ConnectConfig{
		CacheBytes:      32 * testChunk,
		PageSize:        256,
		ReadAheadChunks: 2,
	})

	payload := bytes.Repeat([]byte{0x3C}, 8*testChunk)
	if _, err := putCached(cl, "seq", payload); err != nil {
		t.Fatal(err)
	}
	if err := cache.Flush(nil, "seq"); err != nil {
		t.Fatal(err)
	}

	// Sequential chunk-by-chunk read.
	buf := make([]byte, testChunk)
	for c := 0; c < 8; c++ {
		if err := cache.ReadRange(nil, "seq", int64(c)*testChunk, buf); err != nil {
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
	if _, err := putCached(cl, "filler", make([]byte, 32*testChunk)); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 8; c++ {
		if err := cache.ReadRange(nil, "seq", int64(c)*testChunk, buf); err != nil {
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
	st := openStore(t, cacheRig(t, 3), rpc.Options{})
	cl, cache := connectCached(t, st, nvmalloc.ConnectConfig{CacheBytes: testChunk, PageSize: 256, ReadAheadChunks: 2})

	const chunks = 16
	payload := make([]byte, chunks*testChunk)
	for i := range payload {
		payload[i] = byte(i/testChunk + 1)
	}
	if _, err := putCached(cl, "tiny", payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, testChunk)
	for pass := 0; pass < 20; pass++ {
		for c := 0; c < chunks; c++ {
			if err := cache.ReadRange(nil, "tiny", int64(c)*testChunk, buf); err != nil {
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
	st := openStore(t, cacheRig(t, 3), rpc.Options{})
	cl, cache := connectCached(t, st, nvmalloc.ConnectConfig{CacheBytes: 12 * testChunk, PageSize: 256, ReadAheadChunks: 2})

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
			if err := cache.ReadRange(nil, name, int64(c)*testChunk, buf); err != nil {
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
		if _, err := putCached(cl, name, img); err != nil {
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
			r, err := putCached(cl, "tmp", img)
			if err != nil {
				errs <- err
				return
			}
			if err := cache.Flush(nil, "tmp"); err != nil {
				errs <- err
				return
			}
			cache.Drop(nil, "tmp")
			if err := sweep("tmp", img[:2*testChunk]); err != nil {
				errs <- err
				return
			}
			if err := r.Free(nil); err != nil {
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

// TestCachedStoreConcurrent drives one chunk cache from many goroutines
// (disjoint chunk-aligned regions) and checks the final image, exercising
// eviction and flush under concurrency. Run with -race.
func TestCachedStoreConcurrent(t *testing.T) {
	const goroutines = 6
	addr := cacheRig(t, 3)
	st := openStore(t, addr, rpc.Options{PoolSize: 2})
	// Undersized cache so eviction writebacks happen mid-run.
	cl, cache := connectCached(t, st, nvmalloc.ConnectConfig{CacheBytes: 4 * testChunk, PageSize: 256, ReadAheadChunks: -1})

	region := int64(3) * testChunk
	total := goroutines * region
	if _, err := cl.Malloc(nil, total, nvmalloc.WithName("v")); err != nil {
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
				if err := cache.WriteRange(nil, "v", base+off, patch); err != nil {
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
	if err := cache.Flush(nil, "v"); err != nil {
		t.Fatal(err)
	}
	// Read back through a cold cache to see exactly what the benefactors
	// hold.
	st2 := openStore(t, addr, rpc.Options{})
	defer st2.Close()
	got, err := rpc.GetFile(st2, "v")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("flushed contents not byte-exact after concurrent cached writes")
	}
}

// TestCachedStorePartialPagesConcurrent drives one undersized chunk cache
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
	addr := cacheRig(t, 3)
	st := openStore(t, addr, rpc.Options{})
	_, cache := connectCached(t, st, nvmalloc.ConnectConfig{
		CacheBytes:      4 * testChunk,
		PageSize:        page,
		ReadAheadChunks: 2,
		CacheDir:        t.TempDir(),
	})

	region := int64(3) * testChunk
	want := make([]byte, goroutines*region)
	rand.New(rand.NewSource(1)).Read(want)
	if err := rpc.PutFile(st, "v", want); err != nil {
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
					err = cache.WriteRange(nil, "v", base+off, patch)
				case 2:
					got := make([]byte, n)
					if err = cache.ReadRange(nil, "v", base+off, got); err == nil && !bytes.Equal(got, mine[off:off+n]) {
						err = fmt.Errorf("goroutine %d iter %d: read [%d,+%d) mismatch", g, it, off, n)
					}
				case 3:
					err = cache.Flush(nil, "v")
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
	if err := cache.Flush(nil, "v"); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, addr, rpc.Options{})
	defer st2.Close()
	got, err := rpc.GetFile(st2, "v")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("flushed contents not byte-exact after concurrent partial-page writes")
	}
}

// TestDisabledObsIsInert: a store opened with obs.Disabled() must run the
// full data path without panicking and report empty stats — the zero-cost
// opt-out the benchmark relies on.
func TestDisabledObsIsInert(t *testing.T) {
	st := openStore(t, cacheRig(t, 2), rpc.Options{Obs: obs.Disabled()})
	_, cache := connectCached(t, st, nvmalloc.ConnectConfig{CacheBytes: 8 * testChunk, ReadAheadChunks: -1})
	payload := make([]byte, 3*testChunk)
	for i := range payload {
		payload[i] = 9 ^ byte(i%251)
	}
	if err := rpc.PutFile(st, "quiet", payload); err != nil {
		t.Fatal(err)
	}
	got, err := rpc.GetFile(st, "quiet")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch with disabled obs")
	}
	if s := st.Stats(); s.ChunkGets != 0 || s.ChunkPuts != 0 {
		t.Fatalf("disabled obs still counted: %+v", s)
	}
	if err := cache.ReadRange(nil, "quiet", 0, got); err != nil {
		t.Fatal(err)
	}
	if cs := cache.Stats(); cs.Misses != 0 {
		t.Fatalf("disabled obs still counted cache stats: %+v", cs)
	}
}

// TestReadAheadSpansNestUnderCaller: read-ahead runs on tasks the substrate
// hands a fresh context, so the cache carries the caller's span across the
// spawn — on a traced sweep every cache.get_chunk span, demand or
// speculative, belongs to the caller's trace and none floats as a root.
func TestReadAheadSpansNestUnderCaller(t *testing.T) {
	const chunks = 12
	st := openStore(t, cacheRig(t, 3), rpc.Options{})
	cl, cache := connectCached(t, st, nvmalloc.ConnectConfig{CacheBytes: 2 * chunks * testChunk, PageSize: 256, ReadAheadChunks: 2})
	if _, err := putCached(cl, "traced", make([]byte, chunks*testChunk)); err != nil {
		t.Fatal(err)
	}
	if err := cache.Flush(nil, "traced"); err != nil {
		t.Fatal(err)
	}
	cache.Drop(nil, "traced")

	root := st.Obs().StartSpan("", "", "client.sweep")
	ctx := store.WithSpan(nil, store.SpanInfo{Trace: root.Trace(), Parent: root.ID(), Var: "traced"})
	buf := make([]byte, testChunk)
	for c := 0; c < chunks; c++ {
		if err := cache.ReadRange(ctx, "traced", int64(c)*testChunk, buf); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	// Close waits out the read-ahead tasks still in flight; the span ring
	// and the cache counters outlive it.
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	if got := cache.Stats().PrefetchBytes; got != (chunks-2)*testChunk {
		t.Fatalf("read ahead %d B, want all but the two confirming chunks", got)
	}
	gets := st.Obs().Spans.Filter(func(s obs.Span) bool { return s.Name == "cache.get_chunk" })
	if len(gets) != chunks {
		t.Fatalf("%d cache.get_chunk spans for %d chunks", len(gets), chunks)
	}
	for _, s := range gets {
		if s.Trace != root.Trace() || s.Parent != root.ID() {
			t.Fatalf("cache.get_chunk span outside the caller's trace: %+v", s)
		}
	}
}

// cachedBenchChunks is the cached benches' file size. cachedBenchLatency is
// the emulated device time per chunk access, in the ballpark of a 2012 SLC
// SSD random access: loopback has essentially no latency, and without it
// the benches would measure only codec CPU and hide what fan-out buys.
const (
	cachedBenchChunks  = 48
	cachedBenchLatency = 150 * time.Microsecond
)

// cachedBenchStore starts a manager plus bens benefactors whose backends
// take cachedBenchLatency per chunk access, and opens a store on it.
func cachedBenchStore(b *testing.B, bens int) *rpc.Store {
	b.Helper()
	ms, err := rpc.NewManagerServer("127.0.0.1:0", testChunk, manager.RoundRobin)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ms.Close() })
	for i := 0; i < bens; i++ {
		backend := benefactor.Delay(benefactor.NewMem(), cachedBenchLatency)
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 2*cachedBenchChunks*testChunk, testChunk, backend, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { bs.Close() })
	}
	return openStore(b, ms.Addr(), rpc.Options{})
}

// BenchmarkRPCStoreCachedReadAt measures the cache serving a working set
// that fits: after the first pass everything is resident and reads cost no
// network round trips at all.
func BenchmarkRPCStoreCachedReadAt(b *testing.B) {
	cl, cache := connectCached(b, cachedBenchStore(b, 4), nvmalloc.ConnectConfig{
		CacheBytes:      2 * cachedBenchChunks * testChunk,
		PageSize:        256,
		ReadAheadChunks: -1,
	})
	size := int64(cachedBenchChunks * testChunk)
	if _, err := putCached(cl, "bench", make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cache.ReadRange(nil, "bench", 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCStoreCachedSparseFlush measures the Table VII write
// optimization end-to-end: dirty one page per chunk, flush, compare
// against whole-chunk writeback via the WriteFullChunks baseline.
func BenchmarkRPCStoreCachedSparseFlush(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "dirty-pages"
		if full {
			name = "whole-chunks"
		}
		b.Run(name, func(b *testing.B) {
			st := cachedBenchStore(b, 4)
			cl, cache := connectCached(b, st, nvmalloc.ConnectConfig{
				CacheBytes:      2 * cachedBenchChunks * testChunk,
				PageSize:        256,
				ReadAheadChunks: -1,
				WriteFullChunks: full,
			})
			size := int64(cachedBenchChunks * testChunk)
			if _, err := putCached(cl, "bench", make([]byte, size)); err != nil {
				b.Fatal(err)
			}
			if err := cache.Flush(nil, "bench"); err != nil {
				b.Fatal(err)
			}
			page := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < cachedBenchChunks; c++ {
					if err := cache.WriteRange(nil, "bench", int64(c)*testChunk, page); err != nil {
						b.Fatal(err)
					}
				}
				if err := cache.Flush(nil, "bench"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(st.Stats().SSDWriteBytes)/float64(b.N), "ssd-B/op")
		})
	}
}

// BenchmarkCheckpointFlushFanout is the local row of the ckpt-cycle ledger
// (EXPERIMENTS.md): a checkpoint's flush of 13 sparsely dirtied chunks that
// are all shared with the previous checkpoint, so every writeback is a
// copy-on-write remap (manager-driven copy onto 2 replicas) plus a
// dirty-page put, on 1 ms devices. Device work is ~4 ms per chunk spread
// over 3 benefactors; what the flush costs beyond that is lost overlap.
func BenchmarkCheckpointFlushFanout(b *testing.B) {
	const dirtyChunks = 13
	ms, err := rpc.NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin, rpc.ManagerConfig{Replication: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ms.Close() })
	for i := 0; i < 3; i++ {
		backend := benefactor.Delay(benefactor.NewMem(), time.Millisecond)
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 64*dirtyChunks*testChunk, testChunk, backend, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { bs.Close() })
	}
	st := openStore(b, ms.Addr(), rpc.Options{})
	cl, cache := connectCached(b, st, nvmalloc.ConnectConfig{CacheBytes: 2 * dirtyChunks * testChunk, PageSize: 256, ReadAheadChunks: -1})
	if _, err := putCached(cl, "var", make([]byte, dirtyChunks*testChunk)); err != nil {
		b.Fatal(err)
	}
	if err := cache.Flush(nil, "var"); err != nil {
		b.Fatal(err)
	}
	cache.ArmCOW(nil, "var", "", 0, nil)
	page := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ckpt := fmt.Sprintf("ckpt%d", i)
		if err := st.Create(ckpt, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Link(ckpt, []string{"var"}); err != nil {
			b.Fatal(err)
		}
		page[0] = byte(i)
		for c := 0; c < dirtyChunks; c++ {
			if err := cache.WriteRange(nil, "var", int64(c)*testChunk, page); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := cache.Flush(nil, "var"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.Delete(ckpt); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/flush")
	b.ReportMetric(float64(st.Stats().InFlightPeak), "inflight-peak")
	if got := cache.Stats().Remaps; got != int64(dirtyChunks*b.N) {
		b.Fatalf("%d remaps over %d flushes, want %d per flush", got, b.N, dirtyChunks)
	}
}

// BenchmarkRestoreReadBack is the local row of the ckpt-cycle restore
// ledger (EXPERIMENTS.md): a cold sequential read-back of a 128-chunk file
// in 1 MiB ops through the cache, on three 1 ms devices — what a restarted
// job does with a restored region. Serial device time is 128 ms, spread
// over 3 benefactors ≈ 43 ms; what a sweep costs beyond that is lost
// overlap.
func BenchmarkRestoreReadBack(b *testing.B) {
	const (
		chunk  = 256 << 10
		chunks = 128
		op     = 1 << 20
	)
	ms, err := rpc.NewManagerServerWith("127.0.0.1:0", chunk, manager.RoundRobin, rpc.ManagerConfig{Replication: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ms.Close() })
	for i := 0; i < 3; i++ {
		backend := benefactor.Delay(benefactor.NewMem(), time.Millisecond)
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 4*chunks*chunk, chunk, backend, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { bs.Close() })
	}
	payload := make([]byte, chunks*chunk)
	for i := range payload {
		payload[i] = byte(i/chunk + 1)
	}
	// The file is written through a client of its own, so that the reading
	// store's in-flight peak is the sweep's.
	wst := openStore(b, ms.Addr(), rpc.Options{})
	err = rpc.PutFile(wst, "restart", payload)
	wst.Close()
	if err != nil {
		b.Fatal(err)
	}
	st := openStore(b, ms.Addr(), rpc.Options{})
	_, cache := connectCached(b, st, nvmalloc.ConnectConfig{CacheBytes: 2 * chunks * chunk, ReadAheadChunks: 2})
	buf := make([]byte, op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache.Drop(nil, "restart")
		b.StartTimer()
		for off := 0; off < len(payload); off += op {
			if err := cache.ReadRange(nil, "restart", int64(off), buf); err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(buf, payload[off:off+op]) {
				b.Fatalf("sweep %d: bytes at %d differ", i, off)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/sweep")
	b.ReportMetric(float64(st.Stats().InFlightPeak), "inflight-peak")
	b.ReportMetric(float64(cache.Stats().Misses)/float64(b.N), "misses/sweep")
	b.ReportMetric(float64(cache.Stats().PrefetchWasted)/chunk/float64(b.N), "wasted-chunks/sweep")
}

// BenchmarkRestoreAfterWrites is the local row of the ckpt-cycle restore
// with the variable moved on (EXPERIMENTS.md): one ckpt-cycle step on a
// 128-chunk variable on three 1 ms devices — write 4 pages in each of 13
// chunks, checkpoint — then, timed, restore the previous checkpoint and
// read it back in 1 MiB ops. Every chunk of the restore is still in the
// client's RAM: the unchanged ones as the variable's, the 13 changed ones
// as the pre-images their first writes kept. Reports ms/restore and
// gets/restore, which must be 0.
func BenchmarkRestoreAfterWrites(b *testing.B) {
	const (
		chunk   = 256 << 10
		chunks  = 128
		page    = 4096
		changed = 13
		op      = 1 << 20
	)
	ms, err := rpc.NewManagerServerWith("127.0.0.1:0", chunk, manager.RoundRobin, rpc.ManagerConfig{Replication: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ms.Close() })
	for i := 0; i < 3; i++ {
		backend := benefactor.Delay(benefactor.NewMem(), time.Millisecond)
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 8*chunks*chunk, chunk, backend, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { bs.Close() })
	}
	st := openStore(b, ms.Addr(), rpc.Options{})
	c, _ := connectCached(b, st, nvmalloc.ConnectConfig{CacheBytes: 2 * chunks * chunk, PageSize: page})
	live := make([]byte, chunks*chunk)
	for i := range live {
		live[i] = byte(i / page)
	}
	v, err := c.Malloc(nil, int64(len(live)), nvmalloc.WithName("var"))
	if err != nil {
		b.Fatal(err)
	}
	if err := v.WriteAt(nil, 0, live); err != nil {
		b.Fatal(err)
	}
	dram := make([]byte, 64<<10)
	prev, err := c.Checkpoint(nil, "ckpt0", dram, v)
	if err != nil {
		b.Fatal(err)
	}
	snap, buf := make([]byte, len(live)), make([]byte, op)
	rng := rand.New(rand.NewSource(1))
	var gets int64
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		b.StopTimer()
		copy(snap, live)
		for _, k := range rng.Perm(chunks)[:changed] {
			for _, pg := range rng.Perm(chunk / page)[:4] {
				off := k*chunk + pg*page
				for j := off; j < off+page; j++ {
					live[j] = byte(i)
				}
				if err := v.WriteAt(nil, int64(off), live[off:off+page]); err != nil {
					b.Fatal(err)
				}
			}
		}
		next, err := c.Checkpoint(nil, fmt.Sprintf("ckpt%d", i), dram, v)
		if err != nil {
			b.Fatal(err)
		}
		if i >= 2 {
			if err := c.DeleteCheckpoint(nil, fmt.Sprintf("ckpt%d", i-2)); err != nil {
				b.Fatal(err)
			}
		}
		before := st.Stats().ChunkGets
		b.StartTimer()
		r, err := c.RestoreRegion(nil, prev.Name, prev.Regions[0], fmt.Sprintf("rest%d", i))
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < len(snap); off += op {
			if err := r.ReadAt(nil, int64(off), buf); err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(buf, snap[off:off+op]) {
				b.Fatalf("restore %d: bytes at %d differ from the checkpoint's", i, off)
			}
		}
		b.StopTimer()
		gets += st.Stats().ChunkGets - before
		if err := r.Free(nil); err != nil {
			b.Fatal(err)
		}
		prev = next
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/restore")
	b.ReportMetric(float64(gets)/float64(b.N), "gets/restore")
}
