package fusecache

import (
	"bytes"
	"testing"

	"nvmalloc/internal/cluster"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/simstore"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/store"
	"nvmalloc/internal/sysprof"
)

// lendClient is a store.Client double over the simulated store that lends
// caller-owned chunk buffers (store.BufferLender), as the TCP adapter does.
// It counts GetChunk calls and records every buffer handed back, by its
// first byte's address.
type lendClient struct {
	store.Client
	gets     int
	lent     []*byte
	released map[*byte]int
}

func (c *lendClient) GetChunk(ctx store.Ctx, refs []proto.ChunkRef) ([]byte, error) {
	c.gets++
	data, err := c.Client.GetChunk(ctx, refs)
	if err != nil {
		return nil, err
	}
	buf := append([]byte(nil), data...)
	c.lent = append(c.lent, &buf[0])
	return buf, nil
}

func (c *lendClient) PrivateChunks() bool { return true }

func (c *lendClient) ReleaseChunk(buf []byte) { c.released[&buf[0]]++ }

// shareRig is a cache over lendClient on a simulated store of four
// benefactors.
type shareRig struct {
	eng *simtime.Engine
	cl  *lendClient
	cc  *ChunkCache
	cs  int64
}

func newShareRig(cacheChunks, readAhead int) *shareRig {
	e := simtime.NewEngine()
	prof := sysprof.Bench()
	st := simstore.New(cluster.New(e, prof), 0, []int{0, 1, 2, 3}, 64*sysprof.MiB, manager.RoundRobin)
	cl := &lendClient{Client: st.Client(0), released: map[*byte]int{}}
	cc := NewChunkCache(simstore.Env(e), cl, Config{
		ChunkSize:       prof.ChunkSize,
		PageSize:        prof.PageSize,
		CacheBytes:      int64(cacheChunks) * prof.ChunkSize,
		ReadAheadChunks: readAhead,
	})
	return &shareRig{eng: e, cl: cl, cc: cc, cs: prof.ChunkSize}
}

// stopProc is what fail panics with: a proc started by goProc recovers it
// and returns, so a failed check ends the proc instead of leaving the
// engine waiting on a proc that t.FailNow stopped. Checks inside a proc
// call fail, never t.Fatal.
type stopProc struct{}

// fail reports a failed check from inside a proc and ends the proc.
func fail(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Errorf(format, args...)
	panic(stopProc{})
}

// goProc starts fn as a proc on eng that fail can end.
func goProc(eng *simtime.Engine, name string, fn func(p *simtime.Proc)) {
	eng.Go(name, func(p *simtime.Proc) {
		defer func() {
			if v := recover(); v != nil && v != (stopProc{}) {
				panic(v)
			}
		}()
		fn(p)
	})
}

// releases counts how often the cache gave up the buffer whose first byte
// is at b: back to the lender, or onto its spares.
func (r *shareRig) releases(b *byte) int {
	n := r.cl.released[b]
	for _, sp := range r.cc.spares {
		if &sp[0] == b {
			n++
		}
	}
	return n
}

func (r *shareRig) run(t *testing.T, fn func(p *simtime.Proc)) {
	t.Helper()
	goProc(r.eng, "test", fn)
	r.eng.Run()
}

// live creates file v of n chunks, chunk i filled with byte i+1, and reads
// every chunk into the cache.
func (r *shareRig) live(t *testing.T, p *simtime.Proc, n int) {
	t.Helper()
	fi, err := r.cl.Create(p, "v", int64(n)*r.cs)
	if err != nil {
		fail(t, "%v", err)
	}
	for i := 0; i < n; i++ {
		if err := r.cl.PutChunk(p, store.ReplicaRefs(fi, i), bytes.Repeat([]byte{byte(i + 1)}, int(r.cs))); err != nil {
			fail(t, "%v", err)
		}
	}
	for i := 0; i < n; i++ {
		r.expect(t, p, "v", i, byte(i+1))
	}
}

// checkpoint links v into ckpt, arms v copy-on-write, and derives r from
// the checkpoint: the restore of core.RestoreRegion.
func (r *shareRig) checkpoint(t *testing.T, p *simtime.Proc, n int) {
	t.Helper()
	if _, err := r.cl.Create(p, "ckpt", 0); err != nil {
		fail(t, "%v", err)
	}
	if _, err := r.cl.Link(p, "ckpt", []string{"v"}); err != nil {
		fail(t, "%v", err)
	}
	r.cc.ArmCOW(p, "v", "", 0, nil)
	r.restore(t, p, n)
}

// restore derives r from ckpt and registers it, as core.RestoreRegion does.
func (r *shareRig) restore(t *testing.T, p *simtime.Proc, n int) {
	t.Helper()
	fi, err := r.cl.Derive(p, "r", "ckpt", 0, n, int64(n)*r.cs)
	if err != nil {
		fail(t, "%v", err)
	}
	r.cc.RegisterMeta(p, fi)
	r.cc.ArmCOW(p, "r", "", 0, nil)
}

// expect reads chunk idx of file whole through the cache and checks that
// every byte is b.
func (r *shareRig) expect(t *testing.T, p *simtime.Proc, file string, idx int, b byte) {
	t.Helper()
	buf := make([]byte, r.cs)
	if err := r.cc.ReadRange(p, file, int64(idx)*r.cs, buf); err != nil {
		fail(t, "%v", err)
	}
	for i, got := range buf {
		if got != b {
			fail(t, "%s chunk %d byte %d reads %d, want %d", file, idx, i, got, b)
		}
	}
}

func (r *shareRig) write(t *testing.T, p *simtime.Proc, file string, idx int, b byte) {
	t.Helper()
	if err := r.cc.WriteRange(p, file, int64(idx)*r.cs, bytes.Repeat([]byte{b}, int(r.cs))); err != nil {
		fail(t, "%v", err)
	}
}

// A file derived from a checkpoint of a resident variable reads every chunk
// from the variable's buffers: no GetChunk, no SSD or prefetch bytes, and
// each borrowed load counts as a hit.
func TestSharedChunkDerivedFileCostsNoGets(t *testing.T) {
	const n = 6
	r := newShareRig(16, 2)
	r.run(t, func(p *simtime.Proc) {
		r.live(t, p, n)
		r.checkpoint(t, p, n)
		gets, before := r.cl.gets, r.cc.Stats()
		for i := 0; i < n; i++ {
			r.expect(t, p, "r", i, byte(i+1))
		}
		after := r.cc.Stats()
		if g := r.cl.gets - gets; g != 0 {
			t.Errorf("restore issued %d GetChunks, want 0", g)
		}
		if d := after.SSDReadBytes - before.SSDReadBytes; d != 0 {
			t.Errorf("restore read %d SSD bytes, want 0", d)
		}
		if d := after.PrefetchBytes - before.PrefetchBytes; d != 0 {
			t.Errorf("restore prefetched %d bytes, want 0", d)
		}
		if d := after.Misses - before.Misses; d != 0 {
			t.Errorf("restore counted %d misses, want 0", d)
		}
		if d := after.Hits - before.Hits; d < n {
			t.Errorf("restore counted %d hits, want >= %d", d, n)
		}
		if b := r.cc.buffers(); b != n {
			t.Errorf("%d distinct buffers for two files sharing %d chunks", b, n)
		}
	})
}

// A write to either holder of a shared buffer copies it first: the other
// holder keeps its bytes.
func TestSharedChunkWriteCopiesFirst(t *testing.T) {
	const n = 4
	r := newShareRig(16, 0)
	r.run(t, func(p *simtime.Proc) {
		r.live(t, p, n)
		r.checkpoint(t, p, n)
		for i := 0; i < n; i++ {
			r.expect(t, p, "r", i, byte(i+1))
		}
		r.write(t, p, "r", 0, 0xAA) // the borrower writes
		r.write(t, p, "v", 1, 0xBB) // the lender writes
		r.expect(t, p, "v", 0, 1)
		r.expect(t, p, "r", 0, 0xAA)
		r.expect(t, p, "r", 1, 2)
		r.expect(t, p, "v", 1, 0xBB)
		if err := r.cc.Flush(p, "v"); err != nil {
			fail(t, "%v", err)
		}
		if err := r.cc.Flush(p, "r"); err != nil {
			fail(t, "%v", err)
		}
		r.cc.Drop(p, "v")
		r.cc.Drop(p, "r")
		r.expect(t, p, "v", 0, 1)
		r.expect(t, p, "v", 1, 0xBB)
		r.expect(t, p, "r", 0, 0xAA)
		r.expect(t, p, "r", 1, 2)
	})
}

// A write that is not page-aligned, to a chunk that is not resident yet,
// borrows the lender's buffer for the pages it does not cover and copies it
// before writing: the lender, and a later borrower of the same chunk, keep
// the stored bytes.
func TestSharedChunkUnalignedWriteMissCopiesFirst(t *testing.T) {
	const n, off = 2, 100
	r := newShareRig(16, 0)
	r.run(t, func(p *simtime.Proc) {
		r.live(t, p, n)
		r.checkpoint(t, p, n)
		gets := r.cl.gets
		if err := r.cc.WriteRange(p, "r", off, []byte{0xCC, 0xCC, 0xCC}); err != nil {
			fail(t, "%v", err)
		}
		if g := r.cl.gets - gets; g != 0 {
			t.Errorf("unaligned write miss issued %d GetChunks, want 0 (borrowed)", g)
		}
		r.expect(t, p, "v", 0, 1)
		buf := make([]byte, r.cs)
		if err := r.cc.ReadRange(p, "r", 0, buf); err != nil {
			fail(t, "%v", err)
		}
		want := bytes.Repeat([]byte{1}, int(r.cs))
		copy(want[off:], []byte{0xCC, 0xCC, 0xCC})
		if !bytes.Equal(buf, want) {
			t.Errorf("r chunk 0 does not read the stored bytes with the write applied")
		}
		fi, err := r.cl.Derive(p, "r2", "ckpt", 0, n, int64(n)*r.cs)
		if err != nil {
			fail(t, "%v", err)
		}
		r.cc.RegisterMeta(p, fi)
		r.expect(t, p, "r2", 0, 1)
	})
}

// A holder with dirty pages, or one holding only some pages of its chunk,
// never lends its buffer: the load fetches the chunk's stored bytes.
func TestSharedChunkDirtyOrPartialHolderNeverLends(t *testing.T) {
	r := newShareRig(16, 0)
	r.run(t, func(p *simtime.Proc) {
		fi, err := r.cl.Create(p, "v", 2*r.cs)
		if err != nil {
			fail(t, "%v", err)
		}
		for i := 0; i < 2; i++ {
			if err := r.cl.PutChunk(p, store.ReplicaRefs(fi, i), bytes.Repeat([]byte{byte(i + 1)}, int(r.cs))); err != nil {
				fail(t, "%v", err)
			}
		}
		// Chunk 0: whole pages written on a miss, then written back — the
		// entry is clean and knows its chunk, but holds one page of it.
		ps := r.cc.cfg.PageSize
		if err := r.cc.WriteRange(p, "v", 0, bytes.Repeat([]byte{9}, int(ps))); err != nil {
			fail(t, "%v", err)
		}
		if err := r.cc.Flush(p, "v"); err != nil {
			fail(t, "%v", err)
		}
		// Chunk 1: loaded whole, then dirtied (the file is not armed, so
		// the writeback would land in place — it never happens here).
		r.expect(t, p, "v", 1, 2)
		r.write(t, p, "v", 1, 0xDD)
		if _, err := r.cl.Create(p, "ckpt", 0); err != nil {
			fail(t, "%v", err)
		}
		if _, err := r.cl.Link(p, "ckpt", []string{"v"}); err != nil {
			fail(t, "%v", err)
		}
		r.restore(t, p, 2)
		gets := r.cl.gets
		want := bytes.Repeat([]byte{1}, int(r.cs))
		copy(want, bytes.Repeat([]byte{9}, int(ps)))
		got := make([]byte, r.cs)
		if err := r.cc.ReadRange(p, "r", 0, got); err != nil {
			fail(t, "%v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("r chunk 0 does not read the stored chunk")
		}
		r.expect(t, p, "r", 1, 2)
		if g := r.cl.gets - gets; g != 2 {
			t.Errorf("%d GetChunks, want 2: a partial or dirty holder lent its buffer", g)
		}
	})
}

// After a COW remap the written-back entry holds the fresh chunk, so a load
// of the checkpoint's chunk fetches it instead of borrowing the new bytes.
func TestSharedChunkRemapDropsOldID(t *testing.T) {
	const n = 2
	r := newShareRig(16, 0)
	r.run(t, func(p *simtime.Proc) {
		r.live(t, p, n)
		if _, err := r.cl.Create(p, "ckpt", 0); err != nil {
			fail(t, "%v", err)
		}
		if _, err := r.cl.Link(p, "ckpt", []string{"v"}); err != nil {
			fail(t, "%v", err)
		}
		r.cc.ArmCOW(p, "v", "", 0, nil)
		old := r.cc.entries[chunkKey{"v", 0}].id
		r.write(t, p, "v", 0, 0xEE)
		if err := r.cc.Flush(p, "v"); err != nil {
			fail(t, "%v", err)
		}
		if r.cc.Stats().Remaps != 1 {
			fail(t, "remaps = %d, want 1", r.cc.Stats().Remaps)
		}
		e := r.cc.entries[chunkKey{"v", 0}]
		if e.id == old || r.cc.byID[old] == e {
			fail(t, "remapped entry still indexed by its old chunk %d", old)
		}
		r.restore(t, p, n)
		gets := r.cl.gets
		r.expect(t, p, "r", 0, 1)
		r.expect(t, p, "r", 1, 2)
		if g := r.cl.gets - gets; g != 1 {
			t.Errorf("%d GetChunks, want 1 (the remapped chunk's checkpoint copy)", g)
		}
	})
}

// Each shared buffer goes back to the lender (or becomes a spare) once,
// when its last holder leaves, whichever file is dropped first.
func TestSharedChunkReleasedOnce(t *testing.T) {
	const n = 4
	for _, order := range [][2]string{{"v", "r"}, {"r", "v"}} {
		first, second := order[0], order[1]
		t.Run("drop-"+first+"-first", func(t *testing.T) {
			r := newShareRig(16, 0)
			r.run(t, func(p *simtime.Proc) {
				r.live(t, p, n)
				r.checkpoint(t, p, n)
				for i := 0; i < n; i++ {
					r.expect(t, p, "r", i, byte(i+1))
				}
				r.cc.Drop(p, first)
				if len(r.cl.released) != 0 || len(r.cc.spares) != 0 {
					fail(t, "dropping %s released %d buffers (%d spares) its co-holder still holds",
						first, len(r.cl.released), len(r.cc.spares))
				}
				if r.cc.extra != 0 {
					fail(t, "%d extra holders left after drop", r.cc.extra)
				}
				for i := 0; i < n; i++ {
					r.expect(t, p, second, i, byte(i+1))
				}
				r.cc.Drop(p, second)
				for _, b := range r.cl.lent {
					if got := r.releases(b); got != 1 {
						t.Errorf("buffer released %d times, want 1", got)
					}
				}
			})
		})
	}
}

// Capacity bounds distinct buffers: a restore that borrows most of its
// chunks from a resident variable fits beside it, evicting none of them.
func TestSharedChunkRestoreEvictsNoLender(t *testing.T) {
	const n = 6
	r := newShareRig(8, 2)
	r.run(t, func(p *simtime.Proc) {
		r.live(t, p, n)
		if _, err := r.cl.Create(p, "ckpt", 0); err != nil {
			fail(t, "%v", err)
		}
		if _, err := r.cl.Link(p, "ckpt", []string{"v"}); err != nil {
			fail(t, "%v", err)
		}
		r.cc.ArmCOW(p, "v", "", 0, nil)
		r.write(t, p, "v", n-1, 0xEE)
		if err := r.cc.Flush(p, "v"); err != nil {
			fail(t, "%v", err)
		}
		r.restore(t, p, n)
		ev, gets := r.cc.Stats().Evictions, r.cl.gets
		for i := 0; i < n; i++ {
			r.expect(t, p, "r", i, byte(i+1))
		}
		if d := r.cc.Stats().Evictions - ev; d != 0 {
			t.Errorf("restore evicted %d entries, want 0", d)
		}
		if g := r.cl.gets - gets; g != 1 {
			t.Errorf("%d GetChunks, want 1", g)
		}
		if got := r.cc.Resident(p, "v"); got != n {
			t.Errorf("%d of v's %d chunks resident after the restore", got, n)
		}
		if b := r.cc.buffers(); b != n+1 || b > r.cc.cfg.Chunks() {
			t.Errorf("%d distinct buffers, want %d", b, n+1)
		}
	})
}

// A clean holder keeps the index slot of the buffer it shares: after the
// lender is written (and copies the buffer first), a load of the chunk
// under a third name borrows it from the remaining holder.
func TestSharedChunkIndexFollowsCleanHolder(t *testing.T) {
	const n = 2
	r := newShareRig(16, 0)
	r.run(t, func(p *simtime.Proc) {
		r.live(t, p, n)
		r.checkpoint(t, p, n)
		for i := 0; i < n; i++ {
			r.expect(t, p, "r", i, byte(i+1))
		}
		r.write(t, p, "v", 0, 0xEE)
		if err := r.cc.Flush(p, "v"); err != nil {
			fail(t, "%v", err)
		}
		fi, err := r.cl.Derive(p, "r2", "ckpt", 0, n, int64(n)*r.cs)
		if err != nil {
			fail(t, "%v", err)
		}
		r.cc.RegisterMeta(p, fi)
		gets := r.cl.gets
		r.expect(t, p, "r2", 0, 1)
		if g := r.cl.gets - gets; g != 0 {
			t.Errorf("%d GetChunks, want 0: the clean holder lost the index slot", g)
		}
		r.expect(t, p, "v", 0, 0xEE)
	})
}

// checkpointArmed links v into ckpt and arms v with the link's reply, as
// core.Checkpoint does: the first write that changes a chunk of v keeps
// the checkpoint's bytes of it.
func (r *shareRig) checkpointArmed(t *testing.T, p *simtime.Proc) {
	t.Helper()
	if _, err := r.cl.Create(p, "ckpt", 0); err != nil {
		fail(t, "%v", err)
	}
	fi, err := r.cl.Link(p, "ckpt", []string{"v"})
	if err != nil {
		fail(t, "%v", err)
	}
	r.cc.ArmCOW(p, "v", "ckpt", 0, fi.Chunks)
}

// A restore of a checkpoint the variable has moved on from reads the
// changed chunks from the pre-images their first writes kept: no GetChunk,
// the checkpoint's bytes in the restored file and the new bytes in the
// variable.
func TestPreimageRestoreAfterWritesCostsNoGets(t *testing.T) {
	const n, written = 6, 3
	r := newShareRig(16, 2)
	r.run(t, func(p *simtime.Proc) {
		r.live(t, p, n)
		r.checkpointArmed(t, p)
		for i := 0; i < written; i++ {
			r.write(t, p, "v", i, 0xA0+byte(i))
		}
		if err := r.cc.Flush(p, "v"); err != nil {
			fail(t, "%v", err)
		}
		if got := r.cc.Resident(p, "ckpt"); got != written {
			t.Errorf("%d pre-images resident, want %d", got, written)
		}
		r.restore(t, p, n)
		gets, misses := r.cl.gets, r.cc.Stats().Misses
		for i := 0; i < n; i++ {
			r.expect(t, p, "r", i, byte(i+1))
		}
		if g := r.cl.gets - gets; g != 0 {
			t.Errorf("restore issued %d GetChunks, want 0", g)
		}
		if d := r.cc.Stats().Misses - misses; d != 0 {
			t.Errorf("restore counted %d misses, want 0", d)
		}
		for i := 0; i < n; i++ {
			want := byte(i + 1)
			if i < written {
				want = 0xA0 + byte(i)
			}
			r.expect(t, p, "v", i, want)
		}
		if b := r.cc.buffers(); b != n+written {
			t.Errorf("%d distinct buffers, want %d", b, n+written)
		}
	})
}

// A cache with no free slot keeps no pre-image: the write evicts nothing
// for one, and the restore fetches each changed chunk.
func TestPreimageNotKeptInFullCache(t *testing.T) {
	const n, written = 4, 2
	r := newShareRig(n, 0)
	r.run(t, func(p *simtime.Proc) {
		r.live(t, p, n)
		r.checkpointArmed(t, p)
		ev := r.cc.Stats().Evictions
		for i := 0; i < written; i++ {
			r.write(t, p, "v", i, 0xA0)
		}
		if got := r.cc.Resident(p, "ckpt"); got != 0 {
			t.Errorf("%d pre-images in a full cache, want 0", got)
		}
		if d := r.cc.Stats().Evictions - ev; d != 0 {
			t.Errorf("writes evicted %d entries, want 0", d)
		}
		if got := r.cc.Resident(p, "v"); got != n {
			t.Errorf("%d of v's %d chunks resident", got, n)
		}
		if err := r.cc.Flush(p, "v"); err != nil {
			fail(t, "%v", err)
		}
		r.restore(t, p, n)
		gets := r.cl.gets
		for i := 0; i < written; i++ {
			r.expect(t, p, "r", i, byte(i+1))
		}
		if g := r.cl.gets - gets; g != written {
			t.Errorf("restore issued %d GetChunks, want %d", g, written)
		}
	})
}

// Pre-images sit behind every regular entry: making room drops them first,
// without counting an eviction, and only then evicts the LRU entry.
func TestPreimageEvictedFirst(t *testing.T) {
	const n, written = 4, 2
	r := newShareRig(n+written, 0)
	r.run(t, func(p *simtime.Proc) {
		r.live(t, p, n)
		r.checkpointArmed(t, p)
		for i := 0; i < written; i++ {
			r.write(t, p, "v", i, 0xA0)
		}
		if got := r.cc.Resident(p, "ckpt"); got != written {
			fail(t, "%d pre-images resident, want %d", got, written)
		}
		if e := r.cc.lru.Back().Value.(*entry); !e.pre {
			t.Errorf("LRU tail is %v, want a pre-image", e.key)
		}
		if _, err := r.cl.Create(p, "w", int64(written+1)*r.cs); err != nil {
			fail(t, "%v", err)
		}
		ev := r.cc.Stats().Evictions
		for i := 0; i < written; i++ {
			r.expect(t, p, "w", i, 0)
		}
		if got := r.cc.Resident(p, "ckpt"); got != 0 {
			t.Errorf("%d pre-images left after %d loads into a full cache", got, written)
		}
		if got := r.cc.Resident(p, "v"); got != n {
			t.Errorf("%d of v's %d chunks resident: a regular entry went before a pre-image", got, n)
		}
		if d := r.cc.Stats().Evictions - ev; d != 0 {
			t.Errorf("dropping pre-images counted %d evictions, want 0", d)
		}
		r.expect(t, p, "w", written, 0)
		if d := r.cc.Stats().Evictions - ev; d != 1 {
			t.Errorf("%d evictions, want 1 once the pre-images are gone", d)
		}
	})
}

// Dropping the checkpoint releases each pre-image's buffer exactly once,
// whether or not a restore still borrows it; ReleaseSpares then hands every
// spare to the lender.
func TestPreimageDropReleasesOnce(t *testing.T) {
	const n, written = 4, 2
	for _, order := range [][2]string{{"ckpt", "r"}, {"r", "ckpt"}} {
		first, second := order[0], order[1]
		t.Run("drop-"+first+"-first", func(t *testing.T) {
			r := newShareRig(16, 0)
			r.run(t, func(p *simtime.Proc) {
				r.live(t, p, n)
				r.checkpointArmed(t, p)
				for i := 0; i < written; i++ {
					r.write(t, p, "v", i, 0xA0)
				}
				r.restore(t, p, n)
				for i := 0; i < n; i++ {
					r.expect(t, p, "r", i, byte(i+1))
				}
				r.cc.Drop(p, first)
				if len(r.cl.released) != 0 || len(r.cc.spares) != 0 {
					fail(t, "dropping %s released %d buffers (%d spares) its co-holder still holds",
						first, len(r.cl.released), len(r.cc.spares))
				}
				r.cc.Drop(p, second)
				r.cc.Drop(p, "v")
				for _, b := range r.cl.lent {
					if got := r.releases(b); got != 1 {
						t.Errorf("buffer released %d times, want 1", got)
					}
				}
				if r.cc.extra != 0 || len(r.cc.entries) != 0 || len(r.cc.byID) != 0 {
					t.Errorf("after dropping every file: extra %d, %d entries, %d indexed",
						r.cc.extra, len(r.cc.entries), len(r.cc.byID))
				}
				r.cc.ReleaseSpares(p)
				for _, b := range r.cl.lent {
					if got := r.cl.released[b]; got != 1 || len(r.cc.spares) != 0 {
						t.Errorf("after ReleaseSpares: buffer returned to the lender %d times (%d spares left), want once",
							got, len(r.cc.spares))
					}
				}
			})
		})
	}
}

// Once the checkpoint is dropped, a write keeps no pre-image of it: none
// would be released again, and a file created later under the name would
// read it as its own chunk.
func TestPreimageNotKeptAfterCheckpointDrop(t *testing.T) {
	r := newShareRig(16, 0)
	r.run(t, func(p *simtime.Proc) {
		r.live(t, p, 2)
		r.checkpointArmed(t, p)
		r.cc.Drop(p, "ckpt")
		r.write(t, p, "v", 0, 0xA0)
		if got := r.cc.Resident(p, "ckpt"); got != 0 {
			t.Errorf("%d pre-images of a dropped checkpoint", got)
		}
	})
}
