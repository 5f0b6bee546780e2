package fusecache

import (
	"fmt"

	"nvmalloc/internal/store"
)

// stream is the sequential-run state of one file, in the style of Linux's
// on-demand readahead (DESIGN.md §8 is normative). Only demand misses and
// first touches of read-ahead chunks move it; a hit on any other resident
// chunk never looks it up.
type stream struct {
	// last is the chunk of the latest miss or first touch; noChunk before
	// the first, so that a cold access to chunk 1 does not look sequential.
	last int
	// run counts the consecutive +1 steps of last while no window is open;
	// need is how many of them confirm a run. It starts at 1 (two
	// consecutive chunks), doubles each time a jump ends a run whose window
	// is open, and returns to 1 when a read-ahead chunk is touched in order
	// — so random access, where only chance opens windows, converges on no
	// speculation.
	run, need int
	// window is the read-ahead depth of the confirmed run (0: none open);
	// ahead is one past the highest chunk read-ahead was issued for.
	window, ahead int
	// off is set when a chunk of the open window left the cache untouched:
	// the cache cannot hold this run's speculation until the reader
	// arrives, so the run gets no more of it. The next jump clears it.
	off bool
}

const (
	noChunk = -2
	// maxNeed caps the doubling of need so that it cannot overflow; no run
	// is this long, so a stream that gets here never speculates again.
	maxNeed = 1 << 20
)

// specBudget bounds the speculation one cache carries over all its streams:
// the read-ahead chunks issued and not yet touched, whether still in flight
// or already resident. In flight they hold gate slots, so the bound is half
// the request gate — demand fetches and writebacks always find the other
// half free of speculation — but no less than one starting window, which is
// what a cache with a narrow gate ran before windows grew. Resident they
// hold cache slots nothing has vouched for: a chunk read past the end of a
// run keeps its share of the budget until it is evicted, so a cache whose
// read-ahead is not being used throttles itself. And the bound stays one
// slot short of the cache's capacity, so that speculation cannot evict the
// chunk it was issued for.
func specBudget(cfg Config, gateWidth int) int {
	if cfg.ReadAheadChunks <= 0 {
		return 0
	}
	return min(max(gateWidth/2, cfg.ReadAheadChunks), cfg.Chunks()-1)
}

// advance moves file's stream to chunk idx — a demand miss, or (marker) the
// first touch of a read-ahead chunk — and tops its window up. Lock held;
// never blocks.
func (cc *ChunkCache) advance(ctx store.Ctx, file string, idx int, marker bool) {
	if cc.specMax <= 0 {
		return
	}
	s := cc.streams[file]
	if s == nil {
		s = &stream{last: noChunk, need: 1}
		cc.streams[file] = s
	}
	switch {
	case idx == s.last:
		// A miss retried after losing a race: the stream has not moved.
	case idx != s.last+1:
		if s.window > 0 {
			s.need = min(2*s.need, maxNeed)
		}
		s.window, s.run, s.off = 0, 0, false
	case s.window > 0:
		if marker {
			s.need = 1
			s.window = min(2*s.window, cc.specMax)
		}
	case !s.off:
		if s.run++; s.run >= s.need {
			s.window = min(cc.cfg.ReadAheadChunks, cc.specMax)
			s.ahead = idx + 1
		}
	}
	s.last = idx
	fi := cc.meta[file]
	if s.window == 0 || fi == nil {
		return
	}
	if s.ahead <= idx {
		s.ahead = idx + 1 // read-ahead fell behind the reader
	}
	// The substrate hands tasks a fresh ctx (no span info): carry the
	// caller's trace across, as Flush does for its flushers, so read-ahead
	// spans nest under the access that triggered them.
	sc := store.SpanOf(ctx)
	for ; s.ahead <= idx+s.window && s.ahead < len(fi.Chunks) && cc.spec < cc.specMax; s.ahead++ {
		key := chunkKey{file, s.ahead}
		if _, ok := cc.entries[key]; ok {
			continue
		}
		refs := refsCopy(*fi, key.idx)
		cc.spec++
		if cc.lendable(refs) != nil {
			// A chunk another entry holds is borrowed on the spot: no task,
			// no room, no store request.
			_, _ = cc.load(ctx, cc.reserve(key, true), refs)
			continue
		}
		// Reserve here, under the caller's lock, whenever that takes no
		// blocking eviction: the reader then finds the chunk in flight
		// however late the task is scheduled, and Drop sees it. Behind a
		// dirty victim the task makes its own room, writeback included.
		var e *entry
		if cc.roomNow(ctx) {
			e = cc.reserve(key, true)
			e.queued = true
		}
		cc.env.Go(ctx, fmt.Sprintf("prefetch %s/%d", file, key.idx), func(pp store.Ctx) {
			if sc.Traced() {
				pp = store.WithSpan(pp, sc)
			}
			cc.env.Lock(pp)
			// Best effort: errors are dropped (the demand path will retry
			// and report them). An entry Drop withdrew is not loaded.
			if e == nil {
				if got, _ := cc.fetch(pp, key, refs, s); got == nil {
					cc.spec-- // nothing was read ahead after all
				}
			} else if cc.entries[key] == e {
				e.queued = false
				_, _ = cc.load(pp, e, refs)
			}
			cc.env.Unlock(pp)
		})
	}
}

// wasted accounts a read-ahead chunk that leaves the cache untouched, and
// closes its stream's window for the rest of the run if the chunk lay in
// it. Lock held.
func (cc *ChunkCache) wasted(e *entry) {
	cc.spec--
	if !e.borrowed {
		cc.s.prefetchWasted.Add(int64(len(e.data)))
	}
	if s := cc.streams[e.key.file]; s != nil && s.window > 0 && e.key.idx > s.last && e.key.idx < s.ahead {
		s.window, s.run, s.off = 0, 0, true
	}
}
