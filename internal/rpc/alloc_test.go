//go:build !race

// The allocation gate is skipped under -race: the race runtime instruments
// every allocation and the measured budgets stop meaning anything.

package rpc

import (
	"runtime"
	"testing"
)

// allocBytesPerGet measures process-wide heap bytes allocated per cached
// one-chunk Get (client + in-process servers — the whole TCP chunk path).
func allocBytesPerGet(t *testing.T, st *Store, name string, n int) float64 {
	t.Helper()
	payload := pattern(11, testChunk)
	if err := st.Put(name, payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ { // warm connections, pools, and arenas
		if _, err := st.Get(name); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := st.Get(name); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestAllocBudgetCachedChunkGet is the hard allocation gate ("make
// alloc-bench") on the cached TCP chunk read path. A regression here means a
// pooled buffer stopped being recycled or a staging copy crept back into the
// data path.
func TestAllocBudgetCachedChunkGet(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is load-sensitive")
	}
	r := newRig(t, 1)
	st, err := OpenWith(r.mgr.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	perGet := allocBytesPerGet(t, st, "alloc", 400)
	t.Logf("alloc bytes per cached %d B chunk get: %.0f", testChunk, perGet)
	// The per-op allocations are the caller's result buffer (one chunk) plus
	// small per-call bookkeeping; two chunk sizes catches a pooled buffer
	// silently falling out of reuse.
	if perGet > 2*testChunk {
		t.Errorf("chunk get allocates %.0f B/op, budget %d", perGet, 2*testChunk)
	}
}
