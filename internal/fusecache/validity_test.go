package fusecache

import (
	"bytes"
	"testing"

	"nvmalloc/internal/proto"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/store"
)

// writePages overwrites whole pages of chunk idx with b, one WriteRange per
// page, the way the page layer sends them, and applies the same bytes to
// img when it is non-nil.
func (r *raRig) writePages(t *testing.T, p *simtime.Proc, name string, idx int, pages []int, b byte, img []byte) {
	t.Helper()
	ps := r.cc.cfg.PageSize
	page := bytes.Repeat([]byte{b}, int(ps))
	for _, pg := range pages {
		off := int64(idx)*r.cs + int64(pg)*ps
		if err := r.cc.WriteRange(p, name, off, page); err != nil {
			fail(t, "%v", err)
		}
		if img != nil {
			copy(img[off:], page)
		}
	}
}

// stored reads chunk idx of name straight from the store, past the cache
// and the probe's counters.
func (r *raRig) stored(t *testing.T, p *simtime.Proc, name string, idx int) []byte {
	t.Helper()
	fi, err := r.cl.Client.Lookup(p, name)
	if err != nil {
		fail(t, "%v", err)
	}
	data, err := r.cl.Client.GetChunk(p, store.ReplicaRefs(fi, idx))
	if err != nil {
		fail(t, "%v", err)
	}
	return append([]byte(nil), data...)
}

// A full overwrite of a chunk the cache evicted reads nothing and ships the
// chunk in one put.
func TestOverwriteOfEvictedChunkFetchesNothing(t *testing.T) {
	r := newRARig(2, 8, 0)
	r.run(func(p *simtime.Proc) {
		r.create(t, p, "v", 4)
		for i := 0; i < 4; i++ {
			r.touch(t, p, "v", i)
		}
		if _, ok := r.cc.entries[chunkKey{"v", 0}]; ok {
			t.Error("chunk 0 still resident")
			return
		}
		gets, puts := r.cl.gets, r.cl.puts
		all := make([]int, r.cc.pagesPerChunk())
		for i := range all {
			all[i] = i
		}
		r.writePages(t, p, "v", 0, all, 0xAB, nil)
		if err := r.cc.Flush(p, "v"); err != nil {
			t.Error(err)
			return
		}
		if g, pu := r.cl.gets-gets, r.cl.puts-puts; g != 0 || pu != 1 {
			t.Errorf("overwrite issued %d GetChunks and %d PutChunks, want 0 and 1", g, pu)
			return
		}
		if got := r.stored(t, p, "v", 0); !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, int(r.cs))) {
			t.Error("store does not hold the overwrite")
		}
	})
}

// Read-your-writes through a partly valid entry: the writes fetch nothing,
// the read fetches the chunk once and sees the written pages over the
// store's bytes.
func TestPartialEntryReadYourWrites(t *testing.T) {
	r := newRARig(4, 8, 0)
	r.run(func(p *simtime.Proc) {
		img := r.create(t, p, "v", 2)
		gets := r.cl.gets
		r.writePages(t, p, "v", 0, []int{3, 10, 11}, 0xEE, img)
		if g := r.cl.gets - gets; g != 0 {
			t.Errorf("writing 3 whole pages issued %d GetChunks, want 0", g)
			return
		}
		for pass := 0; pass < 2; pass++ {
			got := make([]byte, r.cs)
			if err := r.cc.ReadRange(p, "v", 0, got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, img[:r.cs]) {
				t.Errorf("pass %d: chunk reads back wrong bytes", pass)
				return
			}
			if g := r.cl.gets - gets; g != 1 {
				t.Errorf("pass %d: %d GetChunks, want the one fill", pass, g)
				return
			}
		}
	})
	if s := r.cc.Stats(); s.Misses != 1 {
		t.Fatalf("%d misses, want the fill alone", s.Misses)
	}
}

// spillRecorder is a store.ChunkSpiller double that records the primary
// ref of every chunk handed to it.
type spillRecorder struct{ spilled []proto.ChunkRef }

func (s *spillRecorder) SpillChunk(_ store.Ctx, refs []proto.ChunkRef, _ []byte) {
	s.spilled = append(s.spilled, refs[0])
}

// A partly valid entry is not the chunk: evicting it clean spills nothing,
// while a whole entry evicted the same way does.
func TestPartialEntryNeverSpills(t *testing.T) {
	r := newRARig(1, 8, 0)
	rec := &spillRecorder{}
	r.cc.spiller = rec
	var whole proto.ChunkRef
	r.run(func(p *simtime.Proc) {
		r.create(t, p, "v", 4)
		for idx := 0; idx < 2; idx++ {
			r.writePages(t, p, "v", idx, []int{0, 1, 2}, 0xEE, nil) // evicts chunk idx-1
			if err := r.cc.Flush(p, "v"); err != nil {
				t.Error(err)
				return
			}
		}
		r.touch(t, p, "v", 2) // evicts chunk 1
		r.touch(t, p, "v", 3) // evicts chunk 2, which is whole
		fi, err := r.cl.Lookup(p, "v")
		if err != nil {
			t.Error(err)
			return
		}
		whole = fi.Chunks[2]
	})
	if s := r.cc.Stats(); s.Evictions != 3 {
		t.Fatalf("%d evictions, want 3", s.Evictions)
	}
	if len(rec.spilled) != 1 || rec.spilled[0] != whole {
		t.Fatalf("spilled %v, want only chunk 2 (%v)", rec.spilled, whole)
	}
}

// The Table VII baseline ships whole chunks, so it fills a partly valid
// entry first: the store ends byte-exact.
func TestPartialEntryWriteFullChunks(t *testing.T) {
	r := newRARig(4, 8, 0)
	r.cc.cfg.WriteFullChunks = true
	r.run(func(p *simtime.Proc) {
		img := r.create(t, p, "v", 2)
		gets, puts := r.cl.gets, r.cl.puts
		r.writePages(t, p, "v", 1, []int{5, 6, 7}, 0xEE, img)
		if err := r.cc.Flush(p, "v"); err != nil {
			t.Error(err)
			return
		}
		if g, pu := r.cl.gets-gets, r.cl.puts-puts; g != 1 || pu != 1 {
			t.Errorf("flush issued %d GetChunks and %d PutChunks, want 1 fill and 1 put", g, pu)
			return
		}
		if got := r.stored(t, p, "v", 1); !bytes.Equal(got, img[r.cs:]) {
			t.Error("whole-chunk writeback of a partial entry is not byte-exact")
		}
	})
}

// On a COW-armed file a partial install needs no fill: the remap's copy of
// the checkpointed chunk supplies the pages the entry never held, and the
// checkpoint keeps its bytes.
func TestPartialEntryCOWKeepsCheckpoint(t *testing.T) {
	r := newRARig(4, 8, 0)
	r.run(func(p *simtime.Proc) {
		img := r.create(t, p, "v", 2)
		orig := append([]byte(nil), img[:r.cs]...)
		if _, err := r.cl.Create(p, "ckpt", 0); err != nil {
			t.Error(err)
			return
		}
		if _, err := r.cl.Link(p, "ckpt", []string{"v"}); err != nil {
			t.Error(err)
			return
		}
		r.cc.ArmCOW(p, "v", "", 0, nil)
		gets := r.cl.gets
		r.writePages(t, p, "v", 0, []int{0, 1, 2}, 0xEE, img)
		if err := r.cc.Flush(p, "v"); err != nil {
			t.Error(err)
			return
		}
		if g := r.cl.gets - gets; g != 0 {
			t.Errorf("%d GetChunks, want 0", g)
			return
		}
		if n := r.cc.Stats().Remaps; n != 1 {
			t.Errorf("%d remaps, want 1", n)
			return
		}
		if got := r.stored(t, p, "ckpt", 0); !bytes.Equal(got, orig) {
			t.Error("checkpoint chunk changed")
			return
		}
		if got := r.stored(t, p, "v", 0); !bytes.Equal(got, img[:r.cs]) {
			t.Error("variable's remapped chunk is not its writes over the checkpoint's bytes")
		}
	})
}

// A Drop that arrives while a fill is on the wire waits it out and leaves
// nothing behind under the dropped name.
func TestDropRacingFillResurrectsNothing(t *testing.T) {
	r := newRARig(4, 8, 0)
	filling := simtime.NewFuture[struct{}](r.eng, "filling")
	var dropped bool
	goProc(r.eng, "reader", func(p *simtime.Proc) {
		img := r.create(t, p, "v", 2)
		r.writePages(t, p, "v", 0, []int{0, 1, 2}, 0xEE, img)
		r.cl.onGet = func() {
			r.cl.onGet = nil
			filling.Set(struct{}{})
		}
		got := make([]byte, r.cs)
		if err := r.cc.ReadRange(p, "v", 0, got); err != nil {
			t.Error(err)
		} else if !bytes.Equal(got, img[:r.cs]) {
			t.Error("read through the fill returned wrong bytes")
		}
	})
	goProc(r.eng, "dropper", func(p *simtime.Proc) {
		filling.Wait(p)
		r.cc.Drop(p, "v")
		if r.cl.inflight != 0 {
			t.Error("Drop returned with the fill still on the wire")
		}
		dropped = true
	})
	r.eng.Run()
	if !dropped {
		t.Fatal("the fill never started")
	}
	if n := len(r.cc.entries); n != 0 {
		t.Fatalf("%d entries left after Drop", n)
	}
}
