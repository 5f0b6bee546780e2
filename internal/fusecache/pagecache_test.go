package fusecache

import (
	"bytes"
	"math/rand"
	"testing"

	"nvmalloc/internal/proto"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/store"
)

// chunkClient is a store.Client double serving one chunk of byte 7 for any
// ref; the rest of the interface is left unimplemented.
type chunkClient struct {
	store.Client
	chunk []byte
}

func (c *chunkClient) ChunkSize() int64 { return int64(len(c.chunk)) }

func (c *chunkClient) GetChunk(store.Ctx, []proto.ChunkRef) ([]byte, error) { return c.chunk, nil }

// Once the page cache is full, a fault refills the LRU victim's frame: a
// 4 KiB read miss and a full-page write miss on a resident chunk allocate
// nothing.
func TestPageFaultZeroAlloc(t *testing.T) {
	const cs, ps = 256 << 10, 4 << 10
	cl := &chunkClient{chunk: bytes.Repeat([]byte{7}, cs)}
	cc := NewChunkCache(store.NewGoEnv(), cl, Config{ChunkSize: cs, PageSize: ps, CacheBytes: cs})
	cc.RegisterMeta(nil, proto.FileInfo{Name: "f", Size: cs, Chunks: make([]proto.ChunkRef, 1)})
	pc := NewPageCache(cc, 4*ps)
	page := make([]byte, ps)
	var next int64
	miss := func(op func(off int64) error) func() {
		return func() {
			off := next % (cs / ps) * ps // cycling 64 pages through 4: always a miss
			next++
			if err := op(off); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := miss(func(off int64) error { return pc.Read(nil, "f", off, page) })
	write := miss(func(off int64) error { return pc.Write(nil, "f", off, page) })
	for i := 0; i < 8; i++ { // fill the page cache and load the chunk
		read()
	}
	before := pc.Stats()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("read miss: %v allocs per fault, want 0", n)
	}
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Errorf("full-page write miss: %v allocs per fault, want 0", n)
	}
	s := pc.Stats()
	if s.Faults-before.Faults != 101 || s.Hits != 0 || s.Writebacks != 101 {
		t.Fatalf("stats %+v: want 101 read faults, 101 writebacks and no hits", s)
	}
	if page[0] != 7 {
		t.Fatalf("read back %d, want 7", page[0])
	}
}

// A 4 KiB Read that hits a resident page looks its file up once and
// indexes the page by integer: no allocation.
func TestPageHitZeroAlloc(t *testing.T) {
	const cs, ps = 256 << 10, 4 << 10
	cl := &chunkClient{chunk: bytes.Repeat([]byte{7}, cs)}
	cc := NewChunkCache(store.NewGoEnv(), cl, Config{ChunkSize: cs, PageSize: ps, CacheBytes: cs})
	cc.RegisterMeta(nil, proto.FileInfo{Name: "f", Size: cs, Chunks: make([]proto.ChunkRef, 1)})
	pc := NewPageCache(cc, cs)
	page := make([]byte, ps)
	var next int64
	read := func() {
		if err := pc.Read(nil, "f", next%(cs/ps)*ps, page); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < cs/ps; i++ { // fault every page in
		read()
	}
	before := pc.Stats()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("read hit: %v allocs per op, want 0", n)
	}
	if s := pc.Stats(); s.Hits-before.Hits != 101 || s.Faults != before.Faults {
		t.Fatalf("stats %+v: want 101 more hits and no more faults", s)
	}
}

// Two procs share a full one-page PageCache and both fault on chunks that
// are not resident, so the first one blocks inside its fill while the
// second faults. The first fault's frame (the victim's) is off the LRU
// before that fill, so the second cannot take it too: each page keeps its
// own buffer and bytes.
func TestSharedPageCacheFaultsUseDistinctFrames(t *testing.T) {
	r := newRARig(4, 8, 0)
	pc := NewPageCache(r.cc, r.cc.cfg.PageSize)
	ps := r.cc.cfg.PageSize
	r.eng.Go("setup", func(p *simtime.Proc) {
		r.create(t, p, "f", 3)
		buf := make([]byte, ps)
		if err := pc.Read(p, "f", 0, buf); err != nil { // the victim
			t.Error(err)
			return
		}
		for i, name := range []string{"a", "b"} {
			idx := i + 1
			r.eng.Go(name, func(p *simtime.Proc) {
				if err := pc.Read(p, "f", int64(idx)*r.cs, make([]byte, 1)); err != nil {
					t.Error(err)
				}
			})
		}
	})
	r.eng.Run()
	a, b := pc.files["f"].get(r.cs/ps), pc.files["f"].get(2*r.cs/ps)
	if a == nil || b == nil {
		t.Fatalf("pages resident: a %v, b %v", a != nil, b != nil)
	}
	if &a.data[0] == &b.data[0] {
		t.Fatal("both faults filled the same frame")
	}
	if a.data[0] != 2 || b.data[0] != 3 {
		t.Fatalf("pages read %d and %d, want 2 and 3", a.data[0], b.data[0])
	}
}

// A writeback that blocks in WriteRange before copying the page must not
// see its frame refilled: here another proc's fault evicts the page while
// the chunk it writes to is still being fetched.
func TestSharedPageCacheWritebackKeepsFrame(t *testing.T) {
	r := newRARig(4, 8, 0)
	pc := NewPageCache(r.cc, r.cc.cfg.PageSize)
	ps := r.cc.cfg.PageSize
	fetching := simtime.NewFuture[struct{}](r.eng, "fetching")
	want := bytes.Repeat([]byte{0xAB}, int(ps))
	r.eng.Go("setup", func(p *simtime.Proc) {
		r.create(t, p, "f", 3)
		r.touch(t, p, "f", 2) // resident: the reader's fault never blocks
		r.cl.onGet = func() {
			r.cl.onGet = nil
			fetching.Set(struct{}{})
		}
		r.eng.Go("fetcher", func(p *simtime.Proc) { r.touch(t, p, "f", 1) })
		r.eng.Go("writer", func(p *simtime.Proc) {
			fetching.Wait(p)
			if err := pc.Write(p, "f", r.cs, want); err != nil { // waits on the fetch
				t.Error(err)
			}
		})
		r.eng.Go("reader", func(p *simtime.Proc) {
			fetching.Wait(p)
			buf := make([]byte, ps)
			if err := pc.Read(p, "f", 2*r.cs, buf); err != nil {
				t.Error(err)
			}
		})
	})
	r.eng.Run()
	r.run(func(p *simtime.Proc) {
		got := make([]byte, ps)
		if err := r.cc.ReadRange(p, "f", r.cs, got); err != nil {
			t.Error(err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("chunk 1 page 0 holds %#x..., want %#x", got[0], want[0])
		}
	})
}

// checkPageIndex fails unless the per-file tables, the LRU list and the
// resident count describe the same pages.
func checkPageIndex(t *testing.T, pc *PageCache) {
	t.Helper()
	indexed := 0
	for name, pf := range pc.files {
		if pf.name != name || pf.gone || pf.n == 0 {
			t.Errorf("table %q: name %q, gone %v, %d pages", name, pf.name, pf.gone, pf.n)
		}
		n := 0
		pf.root.each(pf.height, func(pg *page) {
			if pg.file != pf || pf.get(pg.idx) != pg {
				t.Errorf("%s indexes page %d of table %q", name, pg.idx, pg.file.name)
			}
			n++
		})
		if n != pf.n {
			t.Errorf("table %q holds %d pages, counts %d", name, n, pf.n)
		}
		indexed += n
	}
	listed := 0
	for pg := pc.lru.next; pg != &pc.lru; pg = pg.next {
		if pc.files[pg.file.name] != pg.file || pg.file.get(pg.idx) != pg {
			t.Errorf("LRU page %s/%d is not in the index", pg.file.name, pg.idx)
		}
		listed++
	}
	if indexed != pc.n || listed != pc.n {
		t.Errorf("%d pages indexed, %d on the LRU, resident count %d", indexed, listed, pc.n)
	}
}

// One proc drops f while another proc of the same rank is blocked inside
// the fill of a fault on f, holding f's page table. The fault must install
// its page into a fresh table, never into the dropped one, and the index
// must match the LRU list and the resident count afterwards.
func TestPageCacheDropDuringFill(t *testing.T) {
	r := newRARig(4, 8, 0)
	ps := r.cc.cfg.PageSize
	pc := NewPageCache(r.cc, 8*ps)
	fetching := simtime.NewFuture[struct{}](r.eng, "fetching")
	var dropped *pageFile
	r.eng.Go("setup", func(p *simtime.Proc) {
		r.create(t, p, "f", 2)
		buf := make([]byte, 2*ps)
		if err := pc.Read(p, "f", r.cs-2*ps, buf); err != nil { // chunk 0's last two pages
			t.Error(err)
			return
		}
		dropped = pc.files["f"]
		r.cl.onGet = func() {
			r.cl.onGet = nil
			fetching.Set(struct{}{})
		}
		r.eng.Go("reader", func(p *simtime.Proc) {
			got := make([]byte, 2*ps) // a hit, then chunk 1's first page faults
			if err := pc.Read(p, "f", r.cs-ps, got); err != nil {
				t.Error(err)
			} else if got[0] != 1 || got[ps] != 2 {
				t.Errorf("read %d and %d, want 1 and 2", got[0], got[ps])
			}
		})
		r.eng.Go("dropper", func(p *simtime.Proc) {
			fetching.Wait(p)
			pc.Drop("f")
			checkPageIndex(t, pc)
		})
	})
	r.eng.Run()
	if !dropped.gone || dropped.n != 0 || dropped.root != nil {
		t.Fatalf("dropped table: gone %v, %d pages installed into it", dropped.gone, dropped.n)
	}
	checkPageIndex(t, pc)
	if n := pc.Resident("f"); n != 1 || pc.files["f"].get(r.cs/ps) == nil {
		t.Fatalf("%d pages of f resident, want only the filled page %d", n, r.cs/ps)
	}
}

// A file's radix index agrees with a map under random inserts and
// removals at indexes small, huge and negative, and holds at most height nodes per
// resident page; emptied, it frees every node.
func TestPageIndexMatchesMap(t *testing.T) {
	pc := &PageCache{}
	pf := &pageFile{name: "f"}
	ref := map[int64]*page{}
	rng := rand.New(rand.NewSource(1))
	key := func() int64 {
		base := []int64{0, 63 << 6, 1 << 20, 1 << 45, -1 << 62}[rng.Intn(5)]
		return base + rng.Int63n(200)
	}
	var nodes func(nd *radixNode, h int) int
	nodes = func(nd *radixNode, h int) int {
		n := 1
		for _, kid := range nd.kids {
			if kid != nil && h > 1 {
				n += nodes(kid, h-1)
			}
		}
		return n
	}
	for i := 0; i < 4000; i++ {
		idx := key()
		if pg := ref[idx]; pg != nil {
			pc.unindex(pf, idx)
			delete(ref, idx)
		} else {
			pg = &page{idx: idx}
			pc.index(pf, idx, pg)
			ref[idx] = pg
		}
		if got := pf.get(idx); got != ref[idx] {
			t.Fatalf("op %d: get(%d) = %p, want %p", i, idx, got, ref[idx])
		}
		if pf.n != len(ref) {
			t.Fatalf("op %d: %d pages counted, want %d", i, pf.n, len(ref))
		}
		if pf.root != nil && nodes(pf.root, pf.height) > pf.height*pf.n {
			t.Fatalf("op %d: %d nodes for %d pages at height %d", i, nodes(pf.root, pf.height), pf.n, pf.height)
		}
	}
	for idx, pg := range ref {
		if pf.get(idx) != pg {
			t.Fatalf("get(%d) lost its page", idx)
		}
		pc.unindex(pf, idx)
	}
	if pf.n != 0 || pf.root != nil || pf.height != 0 {
		t.Fatalf("emptied index: %d pages, root %p, height %d", pf.n, pf.root, pf.height)
	}
}
