package fusecache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"nvmalloc/internal/cluster"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/simstore"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/sysprof"
)

// rig bundles a small simulated store + cache for tests.
type rig struct {
	eng   *simtime.Engine
	cl    *cluster.Cluster
	store *simstore.Store
	cc    *ChunkCache
}

func newRig(cacheChunks int) *rig {
	return newRigConc(cacheChunks, sysprof.Bench().FuseConcurrency)
}

// newRigConc additionally pins the FUSE daemon concurrency gate.
func newRigConc(cacheChunks, fuseConc int) *rig {
	e := simtime.NewEngine()
	prof := sysprof.Bench()
	cl := cluster.New(e, prof)
	st := simstore.New(cl, 0, []int{0, 1, 2, 3}, 64*sysprof.MiB, manager.RoundRobin)
	cfg := Config{
		ChunkSize:       prof.ChunkSize,
		PageSize:        prof.PageSize,
		CacheBytes:      int64(cacheChunks) * prof.ChunkSize,
		ReadAheadChunks: 1,
		FuseConcurrency: fuseConc,
	}
	cc := NewChunkCache(simstore.Env(e), st.Client(0), cfg)
	return &rig{eng: e, cl: cl, store: st, cc: cc}
}

// run executes fn as a proc and drives the engine to completion.
func (r *rig) run(t *testing.T, fn func(p *simtime.Proc)) {
	t.Helper()
	r.eng.Go("test", fn)
	r.eng.Run()
}

func TestChunkCacheReadYourWrites(t *testing.T) {
	r := newRig(8)
	cs := r.cc.cfg.ChunkSize
	r.run(t, func(p *simtime.Proc) {
		fi, err := r.cc.store.Create(p, "v", 4*cs)
		if err != nil {
			t.Error(err)
			return
		}
		r.cc.RegisterMeta(p, fi)
		data := bytes.Repeat([]byte{0xC3}, 100)
		if err := r.cc.WriteRange(p, "v", cs-50, data); err != nil { // crosses a chunk boundary
			t.Error(err)
			return
		}
		got := make([]byte, 100)
		if err := r.cc.ReadRange(p, "v", cs-50, got); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("read-your-writes failed across chunk boundary")
		}
	})
}

func TestDirtyPageOnlyEviction(t *testing.T) {
	r := newRig(2) // tiny cache: 2 chunks
	cs, ps := r.cc.cfg.ChunkSize, r.cc.cfg.PageSize
	r.run(t, func(p *simtime.Proc) {
		fi, _ := r.cc.store.Create(p, "v", 8*cs)
		r.cc.RegisterMeta(p, fi)
		// Dirty exactly one page of chunk 0.
		if err := r.cc.WriteRange(p, "v", 0, make([]byte, ps)); err != nil {
			t.Error(err)
			return
		}
		before := r.cc.Stats().SSDWriteBytes
		// Touch chunks 2,3,4 to evict chunk 0 (and the read-ahead chunks).
		buf := make([]byte, 1)
		for idx := 2; idx <= 4; idx++ {
			if err := r.cc.ReadRange(p, "v", int64(idx)*cs, buf); err != nil {
				t.Error(err)
				return
			}
		}
		wrote := r.cc.Stats().SSDWriteBytes - before
		if wrote != ps {
			t.Errorf("eviction shipped %d bytes, want exactly one page (%d)", wrote, ps)
		}
	})
	if r.cc.Stats().DirtyEvictions == 0 {
		t.Fatal("expected a dirty eviction")
	}
}

func TestWholeChunkWriteUsesPutChunk(t *testing.T) {
	r := newRig(2)
	cs := r.cc.cfg.ChunkSize
	r.run(t, func(p *simtime.Proc) {
		fi, _ := r.cc.store.Create(p, "v", 4*cs)
		r.cc.RegisterMeta(p, fi)
		if err := r.cc.WriteRange(p, "v", 0, make([]byte, cs)); err != nil {
			t.Error(err)
			return
		}
		if err := r.cc.Flush(p, "v"); err != nil {
			t.Error(err)
			return
		}
		if got := r.cc.Stats().SSDWriteBytes; got != cs {
			t.Errorf("flush wrote %d bytes, want %d", got, cs)
		}
	})
	// The benefactor should have seen one whole-chunk put, not 64 page puts.
	st := r.store.Benefactor(0).Stats()
	if st.Puts != 1 || st.PagePuts != 0 {
		t.Fatalf("benefactor saw %d puts / %d page-puts, want 1 / 0", st.Puts, st.PagePuts)
	}
}

func TestReadAheadPrefetchesSequential(t *testing.T) {
	r := newRig(8)
	cs := r.cc.cfg.ChunkSize
	r.run(t, func(p *simtime.Proc) {
		fi, _ := r.cc.store.Create(p, "v", 6*cs)
		r.cc.RegisterMeta(p, fi)
		buf := make([]byte, 64)
		for idx := 0; idx < 6; idx++ {
			if err := r.cc.ReadRange(p, "v", int64(idx)*cs, buf); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(5_000_000) // compute between accesses lets prefetch land
		}
	})
	s := r.cc.Stats()
	if s.PrefetchBytes == 0 {
		t.Fatal("sequential reads should trigger read-ahead")
	}
	if s.Misses+s.Waits >= 6 && s.Hits == 0 {
		t.Fatalf("prefetch produced no hits: %+v", s)
	}
}

func TestLRUCapacityRespected(t *testing.T) {
	r := newRig(4)
	cs := r.cc.cfg.ChunkSize
	r.run(t, func(p *simtime.Proc) {
		fi, _ := r.cc.store.Create(p, "v", 16*cs)
		r.cc.RegisterMeta(p, fi)
		buf := make([]byte, 1)
		for idx := 0; idx < 16; idx++ {
			if err := r.cc.ReadRange(p, "v", int64(idx)*cs, buf); err != nil {
				t.Error(err)
				return
			}
		}
		if got := r.cc.Resident(p, "v"); got > 4 {
			t.Errorf("resident chunks %d exceed capacity 4", got)
		}
	})
	if r.cc.Stats().Evictions == 0 {
		t.Fatal("expected evictions")
	}
}

func TestFlushPersistsAndDropDiscards(t *testing.T) {
	r := newRig(8)
	cs := r.cc.cfg.ChunkSize
	r.run(t, func(p *simtime.Proc) {
		fi, _ := r.cc.store.Create(p, "v", 2*cs)
		r.cc.RegisterMeta(p, fi)
		want := bytes.Repeat([]byte{9}, int(cs/2))
		r.cc.WriteRange(p, "v", cs/4, want)
		if err := r.cc.Flush(p, "v"); err != nil {
			t.Error(err)
			return
		}
		r.cc.Drop(p, "v")
		got := make([]byte, len(want))
		if err := r.cc.ReadRange(p, "v", cs/4, got); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Error("flushed data lost after drop")
		}
	})
}

func TestCOWRemapOnWriteback(t *testing.T) {
	r := newRig(8)
	cs := r.cc.cfg.ChunkSize
	r.run(t, func(p *simtime.Proc) {
		c := r.cc.store
		fi, _ := c.Create(p, "v", 2*cs)
		r.cc.RegisterMeta(p, fi)
		orig := bytes.Repeat([]byte{1}, int(cs))
		r.cc.WriteRange(p, "v", 0, orig)
		r.cc.WriteRange(p, "v", cs, orig)
		r.cc.Flush(p, "v")
		// Checkpoint: link v's chunks into ckpt, then arm COW.
		c.Create(p, "ckpt", 0)
		c.Link(p, "ckpt", []string{"v"})
		r.cc.ArmCOW(p, "v", "", 0, nil)
		// Modify chunk 0 and flush: must remap, leaving the checkpoint's
		// chunk untouched.
		r.cc.WriteRange(p, "v", 0, bytes.Repeat([]byte{2}, 64))
		if err := r.cc.Flush(p, "v"); err != nil {
			t.Error(err)
			return
		}
		if r.cc.Stats().Remaps != 1 {
			t.Errorf("remaps = %d, want 1", r.cc.Stats().Remaps)
		}
		// Checkpoint still sees the original bytes.
		ck, _ := c.Lookup(p, "ckpt")
		data, err := c.GetChunk(p, ck.Chunks[0:1])
		if err != nil {
			t.Error(err)
			return
		}
		if data[0] != 1 {
			t.Error("checkpoint chunk was modified in place")
		}
		// The variable sees the new bytes.
		r.cc.Drop(p, "v")
		got := make([]byte, 64)
		r.cc.ReadRange(p, "v", 0, got)
		if got[0] != 2 {
			t.Error("variable lost its post-checkpoint write")
		}
		// Unmodified chunk 1 is still shared (no extra space burned).
		v, _ := c.Lookup(p, "v")
		ck2, _ := c.Lookup(p, "ckpt")
		if v.Chunks[1] != ck2.Chunks[1] {
			t.Error("unmodified chunk should remain shared")
		}
		if v.Chunks[0] == ck2.Chunks[0] {
			t.Error("modified chunk must have been remapped")
		}
	})
}

func TestPageCacheAbsorbsRepeatedAccesses(t *testing.T) {
	r := newRig(8)
	cs := r.cc.cfg.ChunkSize
	pc := NewPageCache(r.cc, 64*r.cc.cfg.PageSize)
	r.run(t, func(p *simtime.Proc) {
		fi, _ := r.cc.store.Create(p, "v", 2*cs)
		r.cc.RegisterMeta(p, fi)
		buf := make([]byte, 8)
		for i := 0; i < 100; i++ {
			if err := pc.Read(p, "v", 16, buf); err != nil {
				t.Error(err)
				return
			}
		}
	})
	s := pc.Stats()
	if s.Faults != 1 {
		t.Fatalf("faults = %d, want 1 (page cache must absorb re-reads)", s.Faults)
	}
	if s.Hits != 99 {
		t.Fatalf("hits = %d, want 99", s.Hits)
	}
}

func TestPageCacheWritebackOnSync(t *testing.T) {
	r := newRig(8)
	cs, ps := r.cc.cfg.ChunkSize, r.cc.cfg.PageSize
	pc := NewPageCache(r.cc, 64*ps)
	r.run(t, func(p *simtime.Proc) {
		fi, _ := r.cc.store.Create(p, "v", 2*cs)
		r.cc.RegisterMeta(p, fi)
		want := bytes.Repeat([]byte{0xEE}, int(3*ps))
		pc.Write(p, "v", ps/2, want)
		if err := r.cc.Flush(p, "v"); err != nil {
			t.Error(err)
			return
		}
		// Read through a completely fresh path.
		r.cc.Drop(p, "v")
		pc.Drop("v")
		got := make([]byte, len(want))
		if err := pc.Read(p, "v", ps/2, got); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Error("synced data lost")
		}
	})
}

func TestSharedChunkCacheAcrossRanks(t *testing.T) {
	// Two rank procs on the same node share one ChunkCache; concurrent
	// misses on the same chunk must fetch it once.
	r := newRig(8)
	cs := r.cc.cfg.ChunkSize
	var created bool
	ready := simtime.NewFuture[struct{}](r.eng, "created")
	for rank := 0; rank < 2; rank++ {
		r.eng.Go("rank", func(p *simtime.Proc) {
			if !created {
				created = true
				fi, _ := r.cc.store.Create(p, "B", 4*cs)
				r.cc.RegisterMeta(p, fi)
				ready.Set(struct{}{})
			} else {
				ready.Wait(p)
			}
			buf := make([]byte, 128)
			for idx := 0; idx < 4; idx++ {
				if err := r.cc.ReadRange(p, "B", int64(idx)*cs, buf); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	r.eng.Run()
	s := r.cc.Stats()
	if s.SSDReadBytes > 5*cs { // 4 chunks + at most 1 read-ahead overshoot
		t.Fatalf("shared cache fetched %d bytes, want <= %d (single fetch per chunk)", s.SSDReadBytes, 5*cs)
	}
	if s.Waits == 0 && s.Hits == 0 {
		t.Fatalf("second rank should hit or wait, stats %+v", s)
	}
}

// Property: an arbitrary sequence of page-cache reads and writes behaves
// exactly like a flat byte array, including after a sync + drop cycle.
func TestCacheMatchesFlatArrayProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(3) // deliberately tiny: force constant eviction
		cs := r.cc.cfg.ChunkSize
		size := 6 * cs
		ref := make([]byte, size)
		ok := true
		r.eng.Go("t", func(p *simtime.Proc) {
			pc := NewPageCache(r.cc, 16*r.cc.cfg.PageSize)
			fi, err := r.cc.store.Create(p, "v", size)
			if err != nil {
				ok = false
				return
			}
			r.cc.RegisterMeta(p, fi)
			for op := 0; op < 120 && ok; op++ {
				off := rng.Int63n(size - 1)
				n := rng.Int63n(min64(2049, size-off)) + 1
				if rng.Intn(2) == 0 {
					data := make([]byte, n)
					rng.Read(data)
					if err := pc.Write(p, "v", off, data); err != nil {
						ok = false
						return
					}
					copy(ref[off:], data)
				} else {
					got := make([]byte, n)
					if err := pc.Read(p, "v", off, got); err != nil {
						ok = false
						return
					}
					if !bytes.Equal(got, ref[off:off+n]) {
						ok = false
						return
					}
				}
			}
			// Sync everything out, drop all caches, and verify the store
			// holds the reference image.
			if err := r.cc.Flush(p, "v"); err != nil {
				ok = false
				return
			}
			pc.Drop("v")
			r.cc.Drop(p, "v")
			got := make([]byte, size)
			if err := r.cc.ReadRange(p, "v", 0, got); err != nil {
				ok = false
				return
			}
			if !bytes.Equal(got, ref) {
				ok = false
			}
		})
		r.eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
