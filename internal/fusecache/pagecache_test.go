package fusecache

import (
	"bytes"
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
	a, b := pc.entries[pageKey{"f", r.cs / ps}], pc.entries[pageKey{"f", 2 * r.cs / ps}]
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
