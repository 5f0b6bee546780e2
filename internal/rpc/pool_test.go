package rpc

import (
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/store"
)

// getGate holds every chunk read at its gate; writes pass.
type getGate struct{ gateBackend }

func (g *getGate) Get(id proto.ChunkID) ([]byte, error) {
	g.wait()
	return g.gateBackend.Get(id)
}

// poolRig is one manager and one benefactor over backend, with a file "f"
// of n chunks written through a store of its own; it returns f's replica
// table.
func poolRig(t *testing.T, backend benefactor.Backend, n int) (*ManagerServer, [][]proto.ChunkRef) {
	t.Helper()
	ms, err := NewManagerServer("127.0.0.1:0", testChunk, manager.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	bs, err := NewBenefactorServer("127.0.0.1:0", ms.Addr(), 0, 0, 64*testChunk, testChunk, backend, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bs.Close() })
	w, err := Open(ms.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Create("f", int64(n)*testChunk); err != nil {
		t.Fatal(err)
	}
	fi, err := w.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	for i, refs := range fi.Replicas {
		if err := w.putChunk(store.SpanInfo{}, refs, pattern(byte(i), testChunk)); err != nil {
			t.Fatal(err)
		}
	}
	return ms, fi.Replicas
}

// fakeStream is a stream with no socket behind it.
type fakeStream struct{ broken, closed bool }

func (f *fakeStream) isBroken() bool { return f.broken }
func (f *fakeStream) close()         { f.closed = true }

// TestPoolBrokenStreamDrainsIdle: the pool lends the most recently
// returned stream first, and a stream that comes back broken takes every
// idle one with it — they reach the same peer — so the next borrower dials
// instead of retrying on a stale socket.
func TestPoolBrokenStreamDrainsIdle(t *testing.T) {
	dials := 0
	p := newPool("peer", 3, func(string) (*fakeStream, error) {
		dials++
		return &fakeStream{}, nil
	})
	var lent []*fakeStream
	for i := 0; i < 3; i++ {
		s, err := p.get("", "")
		if err != nil {
			t.Fatal(err)
		}
		lent = append(lent, s)
	}
	for _, s := range lent {
		p.put(s)
	}
	s, _ := p.get("", "")
	if s != lent[2] {
		t.Fatal("the pool did not lend the most recently returned stream")
	}
	s.broken = true
	p.put(s)
	for i, s := range lent {
		if !s.closed {
			t.Fatalf("stream %d left open after a broken one came back", i)
		}
	}
	if _, err := p.get("", ""); err != nil || dials != 4 {
		t.Fatalf("borrow after a break: err=%v, %d dials, want a 4th dial", err, dials)
	}
}

// TestPoolLoneCallerDialsOnce: a lone sequential caller reuses the stream
// it just returned, so it holds one socket per benefactor however large
// the pool.
func TestPoolLoneCallerDialsOnce(t *testing.T) {
	ms, refs := poolRig(t, benefactor.NewMem(), 4)
	var tap wireTap
	st, err := OpenWith(ms.Addr(), Options{PoolSize: 4, Dial: tap.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 20; i++ {
		data, err := st.getChunk(store.SpanInfo{}, refs[i%len(refs)])
		if err != nil {
			t.Fatal(err)
		}
		st.ReleaseChunk(data)
	}
	if got := tap.dials(); got != 1 {
		t.Fatalf("20 sequential chunk gets dialed %d connections, want 1", got)
	}
}

// TestPoolConcurrentCallsUsePoolSizeConns: PoolSize concurrent chunk calls
// to one benefactor run at once, each on a connection of its own. The
// first get is held at the benefactor, so the others cannot reuse its
// connection.
func TestPoolConcurrentCallsUsePoolSizeConns(t *testing.T) {
	const size = 4
	gate := &getGate{gateBackend{Backend: benefactor.NewMem(), entered: make(chan struct{}, 1), release: make(chan struct{})}}
	ms, refs := poolRig(t, gate, size)
	var tap wireTap
	st, err := OpenWith(ms.Addr(), Options{PoolSize: size, Dial: tap.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	errs := make(chan error, size)
	for _, r := range refs {
		go func(r []proto.ChunkRef) {
			data, err := st.getChunk(store.SpanInfo{}, r)
			st.ReleaseChunk(data)
			errs <- err
		}(r)
	}
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		close(gate.release)
		t.Fatal("no get reached the benefactor")
	}
	for deadline := time.Now().Add(5 * time.Second); tap.dials() < size && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	for range refs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := tap.dials(); got != size {
		t.Fatalf("%d concurrent chunk gets dialed %d connections, want %d", size, got, size)
	}
}

// TestPoolClosesConnBorrowedAcrossClose: when a benefactor's address
// changes, Refresh closes its pool; a connection an in-flight call holds at
// that moment is closed when the call hands it back, not parked open.
func TestPoolClosesConnBorrowedAcrossClose(t *testing.T) {
	gate := &getGate{gateBackend{Backend: benefactor.NewMem(), entered: make(chan struct{}, 1), release: make(chan struct{})}}
	ms, refs := poolRig(t, gate, 1)
	var tap wireTap
	st, err := OpenWith(ms.Addr(), Options{Dial: tap.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	done := make(chan error, 1)
	go func() {
		data, err := st.getChunk(store.SpanInfo{}, refs[0])
		st.ReleaseChunk(data)
		done <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		close(gate.release)
		t.Fatal("the get never reached the benefactor")
	}
	// The benefactor re-registers under another address: Refresh closes
	// the pool while the get still holds its connection.
	if err := st.Manager().Register(0, 0, "127.0.0.1:1", 64*testChunk); err != nil {
		close(gate.release)
		t.Fatal(err)
	}
	if err := st.Refresh(); err != nil {
		close(gate.release)
		t.Fatal(err)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.conns) != 1 {
		t.Fatalf("%d connections dialed, want 1", len(tap.conns))
	}
	if !tap.conns[0].closed.Load() {
		t.Fatal("a connection borrowed across its pool's close was left open")
	}
}

// TestPoolBoundsConnections verifies the pool never dials more than its
// size even under heavy fan-out.
func TestPoolBoundsConnections(t *testing.T) {
	r := newRig(t, 1)
	st, err := OpenWith(r.mgr.Addr(), Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := putFile(st, "f", make([]byte, 16*testChunk)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16*testChunk)
	if err := readFile(st, "f", 0, buf); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	p := st.pools[0]
	st.mu.Unlock()
	if p == nil {
		t.Fatal("no pool created for benefactor 0")
	}
	if busy := len(p.slots); busy != 0 || cap(p.slots) != 2 {
		t.Fatalf("pool slots %d/%d busy, want 0/2", busy, cap(p.slots))
	}
	p.mu.Lock()
	live := len(p.idle)
	p.mu.Unlock()
	if live == 0 || live > 2 {
		t.Fatalf("%d live connections, want 1..2", live)
	}
	// Proto sanity: the fan-out never exceeded the cache's request gate.
	if peak := st.Stats().InFlightPeak; peak > fusecache.DefaultFuseConcurrency {
		t.Fatalf("in-flight peak %d exceeds the gate %d", peak, fusecache.DefaultFuseConcurrency)
	}
}
