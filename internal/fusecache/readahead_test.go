package fusecache

import (
	"bytes"
	"math/rand"
	"testing"

	"nvmalloc/internal/cluster"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/simstore"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/store"
	"nvmalloc/internal/sysprof"
)

// probeClient is a store.Client double that counts GetChunk calls, how
// many are in flight at once, and whole-chunk puts; onGet, when set, runs
// as each GetChunk starts.
type probeClient struct {
	store.Client
	gets, inflight, peak int
	puts                 int
	onGet                func()
}

func (c *probeClient) PutChunk(ctx store.Ctx, refs []proto.ChunkRef, data []byte) error {
	c.puts++
	return c.Client.PutChunk(ctx, refs, data)
}

func (c *probeClient) GetChunk(ctx store.Ctx, refs []proto.ChunkRef) ([]byte, error) {
	if c.onGet != nil {
		c.onGet()
	}
	c.gets++
	if c.inflight++; c.inflight > c.peak {
		c.peak = c.inflight
	}
	defer func() { c.inflight-- }()
	return c.Client.GetChunk(ctx, refs)
}

// probeEnv is a store.Env double over the simulated substrate. Every task
// spawned through Go is read-ahead (flushers go through NewGroup), so it
// can tell speculative gate holders from demand ones; with hold set it
// keeps spawned tasks back until release.
type probeEnv struct {
	store.Env
	hold bool
	held []func()

	spec              map[store.Ctx]bool
	width, holders    int
	specHolders       int
	peakSpecHolders   int
	demandBehindSpecs int // demand acquires that found the gate full with speculation in it
}

func (e *probeEnv) Go(ctx store.Ctx, name string, fn func(store.Ctx)) {
	start := func() {
		e.Env.Go(ctx, name, func(pp store.Ctx) {
			e.spec[store.BaseCtx(pp)] = true
			fn(pp)
		})
	}
	if e.hold {
		e.held = append(e.held, start)
		return
	}
	start()
}

func (e *probeEnv) release() {
	for _, start := range e.held {
		start()
	}
	e.held, e.hold = nil, false
}

func (e *probeEnv) NewGate(name string, width int) store.Gate {
	e.width = width
	return probeGate{e.Env.NewGate(name, width), e}
}

type probeGate struct {
	store.Gate
	e *probeEnv
}

func (g probeGate) Acquire(ctx store.Ctx) {
	e, spec := g.e, g.e.spec[store.BaseCtx(ctx)]
	if !spec && e.holders == e.width && e.specHolders > 0 {
		e.demandBehindSpecs++
	}
	g.Gate.Acquire(ctx)
	e.holders++
	if spec {
		if e.specHolders++; e.specHolders > e.peakSpecHolders {
			e.peakSpecHolders = e.specHolders
		}
	}
}

func (g probeGate) Release(ctx store.Ctx) {
	g.e.holders--
	if g.e.spec[store.BaseCtx(ctx)] {
		g.e.specHolders--
	}
	g.Gate.Release(ctx)
}

// raRig is a simulated store of four benefactors behind the two probes.
type raRig struct {
	eng *simtime.Engine
	env *probeEnv
	cl  *probeClient
	cc  *ChunkCache
	cs  int64
}

func newRARig(cacheChunks, gate, readAhead int) *raRig {
	e := simtime.NewEngine()
	prof := sysprof.Bench()
	st := simstore.New(cluster.New(e, prof), 0, []int{0, 1, 2, 3}, 64*sysprof.MiB, manager.RoundRobin)
	env := &probeEnv{Env: simstore.Env(e), spec: map[store.Ctx]bool{}}
	cl := &probeClient{Client: st.Client(0)}
	cc := NewChunkCache(env, cl, Config{
		ChunkSize:       prof.ChunkSize,
		PageSize:        prof.PageSize,
		CacheBytes:      int64(cacheChunks) * prof.ChunkSize,
		ReadAheadChunks: readAhead,
		FuseConcurrency: gate,
	})
	return &raRig{eng: e, env: env, cl: cl, cc: cc, cs: prof.ChunkSize}
}

// create makes a file whose chunk i is filled with byte i+1, bypassing the
// cache, and returns its image.
func (r *raRig) create(t *testing.T, p *simtime.Proc, name string, chunks int) []byte {
	t.Helper()
	fi, err := r.cl.Create(p, name, int64(chunks)*r.cs)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, int64(chunks)*r.cs)
	for i := 0; i < chunks; i++ {
		chunk := img[int64(i)*r.cs : int64(i+1)*r.cs]
		for j := range chunk {
			chunk[j] = byte(i + 1)
		}
		if err := r.cl.PutChunk(p, store.ReplicaRefs(fi, i), chunk); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// touch reads the first bytes of one chunk and checks them.
func (r *raRig) touch(t *testing.T, p *simtime.Proc, name string, idx int) {
	t.Helper()
	buf := make([]byte, 16)
	if err := r.cc.ReadRange(p, name, int64(idx)*r.cs, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != byte(idx+1) || buf[15] != byte(idx+1) {
		t.Fatalf("%s chunk %d reads %d, want %d", name, idx, buf[0], idx+1)
	}
}

func (r *raRig) run(fn func(p *simtime.Proc)) simtime.Time {
	r.eng.Go("test", fn)
	r.eng.Run()
	return r.eng.Now()
}

// A file's first-ever miss is not a sequential one, whichever chunk it is
// on (the parent's map[string]int read "no miss yet" as "missed chunk 0").
func TestReadAheadColdChunkOneIsNotSequential(t *testing.T) {
	r := newRARig(16, 8, 2)
	r.run(func(p *simtime.Proc) {
		r.create(t, p, "v", 8)
		r.touch(t, p, "v", 1)
		p.Sleep(1e9)
	})
	if s := r.cc.Stats(); s.PrefetchBytes != 0 || r.cl.gets != 1 {
		t.Fatalf("cold read of chunk 1 fetched %d chunks, %d B of them read-ahead", r.cl.gets, s.PrefetchBytes)
	}

	r = newRARig(16, 8, 2)
	r.run(func(p *simtime.Proc) {
		r.create(t, p, "v", 8)
		r.touch(t, p, "v", 0)
		r.touch(t, p, "v", 1)
		p.Sleep(1e9)
	})
	if s := r.cc.Stats(); s.PrefetchBytes != 2*r.cs {
		t.Fatalf("cold read of chunks 0, 1 read %d B ahead, want one starting window (%d)", s.PrefetchBytes, 2*r.cs)
	}
}

// Read-ahead spawned before a Drop and started after it must fetch nothing
// and leave nothing behind under the dropped name — whether its entry was
// reserved at the spawn (room in the cache) or left to the task (every
// victim dirty).
func TestReadAheadDoesNotOutliveDrop(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		r := newRARig(16, 8, 2)
		r.run(func(p *simtime.Proc) {
			r.create(t, p, "v", 8)
			if dirty {
				r.create(t, p, "filler", 16)
				for i := 0; i < 16; i++ {
					if err := r.cc.WriteRange(p, "filler", int64(i)*r.cs, []byte{1}); err != nil {
						t.Fatal(err)
					}
				}
			}
			gets := r.cl.gets
			r.env.hold = true
			r.touch(t, p, "v", 0)
			r.touch(t, p, "v", 1)
			if len(r.env.held) != 2 {
				t.Fatalf("dirty=%v: %d read-ahead tasks spawned, want 2", dirty, len(r.env.held))
			}
			if reserved := r.cc.Resident(p, "v") - 2; (reserved == 0) != dirty {
				t.Fatalf("dirty=%v: %d entries reserved at the spawn", dirty, reserved)
			}
			r.cc.Drop(p, "v")
			r.env.release()
			p.Sleep(1e9)
			if n := r.cc.Resident(p, "v"); n != 0 {
				t.Errorf("dirty=%v: %d chunks resident under the dropped name", dirty, n)
			}
			if r.cc.spec != 0 {
				t.Errorf("dirty=%v: %d read-ahead chunks still accounted", dirty, r.cc.spec)
			}
			if sent := r.cl.gets - gets; sent != 2 {
				t.Errorf("dirty=%v: %d GetChunks sent for the dropped file, want the 2 demand misses only", dirty, sent)
			}
		})
	}
}

// (a) A cold sequential sweep misses twice, wastes nothing, and overlaps
// enough to take at most half the time of the same sweep without read-ahead.
func TestReadAheadSweepStreams(t *testing.T) {
	const chunks = 32
	sweep := func(readAhead int) (*raRig, simtime.Time) {
		r := newRARig(64, 8, readAhead)
		var start simtime.Time
		end := r.run(func(p *simtime.Proc) {
			r.create(t, p, "v", chunks)
			start = p.Now()
			for i := 0; i < chunks; i++ {
				r.touch(t, p, "v", i)
			}
		})
		return r, end - start
	}
	off, serial := sweep(0)
	on, streamed := sweep(2)
	if s := off.cc.Stats(); s.Misses != chunks || s.PrefetchBytes != 0 {
		t.Fatalf("read-ahead off: %+v", s)
	}
	s := on.cc.Stats()
	if s.Misses != 2 || s.PrefetchWasted != 0 || s.PrefetchBytes != (chunks-2)*on.cs {
		t.Fatalf("read-ahead on: %d misses, %d B read ahead, %d B wasted; want 2, %d, 0",
			s.Misses, s.PrefetchBytes, s.PrefetchWasted, (chunks-2)*on.cs)
	}
	if on.cl.gets != chunks {
		t.Fatalf("%d GetChunks for %d chunks", on.cl.gets, chunks)
	}
	if 2*streamed > serial {
		t.Fatalf("sweep with read-ahead took %v, more than half of %v without", streamed, serial)
	}
	if on.cl.peak > 1+on.cc.specMax {
		t.Fatalf("%d GetChunks in flight, budget is 1 demand + %d", on.cl.peak, on.cc.specMax)
	}
}

// (b) Random access closes the window a chance pair opened, and opening
// another takes a longer run each time: over 400 uniformly random reads at
// most one more chance run gets through, and what is wasted stays within
// the windows opened.
func TestReadAheadRandomAccessCollapses(t *testing.T) {
	const chunks = 64
	var reopened int
	for seed := int64(1); seed <= 4; seed++ {
		r := newRARig(8, 8, 2)
		var before int64
		r.run(func(p *simtime.Proc) {
			r.create(t, p, "v", chunks)
			r.touch(t, p, "v", 10)
			r.touch(t, p, "v", 11) // confirms a run: 12 and 13 are read ahead
			r.touch(t, p, "v", 40) // and this ends it
			p.Sleep(1e9)
			before = r.cc.Stats().PrefetchBytes
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				r.touch(t, p, "v", rng.Intn(chunks))
			}
			p.Sleep(1e9)
		})
		s := r.cc.Stats()
		if before != 2*r.cs {
			t.Fatalf("seed %d: read ahead %d B before the jump, want one starting window (%d)", seed, before, 2*r.cs)
		}
		if after := s.PrefetchBytes - before; after > 2*r.cs {
			t.Fatalf("seed %d: read ahead %d B after the collapse, more than one starting window", seed, after)
		} else if after > 0 {
			reopened++
		}
		if s.PrefetchWasted > s.PrefetchBytes || s.PrefetchWasted > 2*2*r.cs {
			t.Fatalf("seed %d: wasted %d B of %d B read ahead", seed, s.PrefetchWasted, s.PrefetchBytes)
		}
	}
	if reopened > 1 {
		t.Fatalf("random access re-opened a window under %d of 4 seeds", reopened)
	}
}

// (c) Two interleaved sequential readers both keep their window open and
// share one budget.
func TestReadAheadTwoStreamsShareBudget(t *testing.T) {
	const chunks = 32
	r := newRARig(64, 8, 2)
	r.run(func(p *simtime.Proc) {
		r.create(t, p, "a", chunks)
		r.create(t, p, "b", chunks)
		for i := 0; i < chunks; i++ {
			r.touch(t, p, "a", i)
			r.touch(t, p, "b", i)
			if i >= 2 && i < chunks-1 && (r.cc.streams["a"].window == 0 || r.cc.streams["b"].window == 0) {
				t.Fatalf("at chunk %d windows are %d and %d", i, r.cc.streams["a"].window, r.cc.streams["b"].window)
			}
		}
	})
	s := r.cc.Stats()
	// Two misses confirm each run; a few more fall to the stream that finds
	// the budget taken when its reader arrives.
	if s.Misses > 8 || s.PrefetchWasted != 0 {
		t.Fatalf("%d misses, %d B wasted over 2x%d chunks", s.Misses, s.PrefetchWasted, chunks)
	}
	if r.env.peakSpecHolders > r.cc.specMax || r.cl.peak > 1+r.cc.specMax {
		t.Fatalf("%d speculative gate holders, %d GetChunks in flight; budget %d",
			r.env.peakSpecHolders, r.cl.peak, r.cc.specMax)
	}
	if r.env.peakSpecHolders < 2 {
		t.Fatalf("speculation never overlapped (%d holders at most)", r.env.peakSpecHolders)
	}
}

// (d) A cache that cannot hold its streams' windows: they collapse, the
// bytes stay right, and the waste does not grow with the file.
func TestReadAheadThrashingIsBounded(t *testing.T) {
	const streams = 6
	waste := func(chunks int) int64 {
		r := newRARig(4, 8, 2)
		r.run(func(p *simtime.Proc) {
			names := []string{"a", "b", "c", "d", "e", "f"}
			for _, n := range names {
				r.create(t, p, n, chunks)
			}
			for i := 0; i < chunks; i++ {
				for _, n := range names {
					r.touch(t, p, n, i)
				}
			}
		})
		return r.cc.Stats().PrefetchWasted / r.cs
	}
	short, long := waste(32), waste(128)
	t.Logf("wasted chunks: %d over 32-chunk files, %d over 128-chunk files", short, long)
	if short == 0 {
		t.Fatal("rig does not thrash: nothing was wasted")
	}
	// A run whose window lost a chunk gets no more read-ahead: a starting
	// window per stream, whatever the length.
	if long != short || long > streams*2 {
		t.Fatalf("wasted %d chunks over short files and %d over long ones; want the same, at most %d", short, long, streams*2)
	}
}

// (e) With every window full, speculation holds no more than its budget of
// gate slots, so a demand miss on another file never queues behind it.
func TestReadAheadLeavesGateSlotsForDemand(t *testing.T) {
	const chunks = 48
	r := newRARig(64, 4, 2)
	ready := simtime.NewFuture[struct{}](r.eng, "created")
	r.eng.Go("setup", func(p *simtime.Proc) {
		r.create(t, p, "a", chunks)
		r.create(t, p, "b", chunks)
		r.create(t, p, "cold", chunks)
		ready.Set(struct{}{})
	})
	for _, name := range []string{"a", "b"} {
		name := name
		r.eng.Go("stream "+name, func(p *simtime.Proc) {
			ready.Wait(p)
			for i := 0; i < chunks; i++ {
				r.touch(t, p, name, i)
			}
		})
	}
	r.eng.Go("demand", func(p *simtime.Proc) {
		ready.Wait(p)
		for i := chunks - 1; i >= 0; i -= 2 { // never sequential
			r.touch(t, p, "cold", i)
		}
	})
	r.eng.Run()
	if r.cc.specMax != 2 {
		t.Fatalf("budget %d on a gate of 4, want 2", r.cc.specMax)
	}
	if r.env.peakSpecHolders != 2 {
		t.Fatalf("speculation held %d gate slots at most, want its whole budget of 2", r.env.peakSpecHolders)
	}
	if r.env.demandBehindSpecs != 0 {
		t.Fatalf("%d demand requests found the gate full with speculation in it", r.env.demandBehindSpecs)
	}
}

// (f) A sweep that stops over-reads no more than its window, and the end of
// the file cuts the window short.
func TestReadAheadStopsAtWindowAndEOF(t *testing.T) {
	const chunks = 32
	r := newRARig(64, 8, 2)
	r.run(func(p *simtime.Proc) {
		r.create(t, p, "v", chunks)
		for i := 0; i <= 10; i++ {
			r.touch(t, p, "v", i)
		}
		p.Sleep(1e9)
		if n, w := r.cc.Resident(p, "v"), r.cc.streams["v"].window; n > 11+w {
			t.Errorf("stopped at chunk 10 with %d resident: over-read exceeds the window of %d", n, w)
		}
	})
	if r.cl.gets > 11+r.cc.specMax {
		t.Fatalf("%d GetChunks for a sweep of 11", r.cl.gets)
	}

	r = newRARig(64, 8, 2)
	var img, got []byte
	r.run(func(p *simtime.Proc) {
		img = r.create(t, p, "v", chunks)
		got = make([]byte, len(img))
		for off := int64(0); off < int64(len(img)); off += 3 * r.cs / 2 { // unaligned ops
			end := off + 3*r.cs/2
			if end > int64(len(img)) {
				end = int64(len(img))
			}
			if err := r.cc.ReadRange(p, "v", off, got[off:end]); err != nil {
				t.Error(err)
				return
			}
		}
		p.Sleep(1e9)
	})
	if !bytes.Equal(got, img) {
		t.Fatal("sweep to end of file read wrong bytes")
	}
	if r.cl.gets != chunks {
		t.Fatalf("%d GetChunks for a %d-chunk file read to its end", r.cl.gets, chunks)
	}
}

// A failed read-ahead is invisible: the demand path fetches the chunk
// itself and reports what it finds.
func TestReadAheadFailureIsInvisible(t *testing.T) {
	r := newRARig(16, 8, 2)
	fc := &failingClient{Client: r.cc.store}
	r.cc.store = fc
	r.run(func(p *simtime.Proc) {
		r.create(t, p, "v", 8)
		r.touch(t, p, "v", 0)
		fc.failNext = 2 // the demand miss of chunk 1 succeeds; its window fails
		fc.skip = 1
		r.touch(t, p, "v", 1)
		p.Sleep(1e9)
		for i := 2; i < 8; i++ {
			r.touch(t, p, "v", i)
		}
	})
	if fc.failed != 2 {
		t.Fatalf("%d GetChunks failed, want 2", fc.failed)
	}
	if s := r.cc.Stats(); s.PrefetchWasted != 0 {
		t.Fatalf("failed read-ahead counted as %d wasted bytes", s.PrefetchWasted)
	}
}

type failingClient struct {
	store.Client
	skip, failNext, failed int
}

func (c *failingClient) GetChunk(ctx store.Ctx, refs []proto.ChunkRef) ([]byte, error) {
	if c.skip > 0 {
		c.skip--
	} else if c.failNext > 0 {
		c.failNext--
		c.failed++
		return nil, proto.ErrNoSuchChunk
	}
	return c.Client.GetChunk(ctx, refs)
}
