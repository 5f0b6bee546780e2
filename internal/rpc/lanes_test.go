package rpc

import (
	"encoding/gob"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmalloc/internal/proto"
)

// barrierManager is a gob manager stand-in whose handler holds every request
// until want of them are in flight at once — answerable only by a client
// that really runs that many round trips concurrently.
type barrierManager struct {
	l        net.Listener
	want     int64
	inflight atomic.Int64
	release  chan struct{} // closed once want requests are in flight
	once     sync.Once
	accepted atomic.Int64
	// hungUp gets one send per connection the client closed; buffered past
	// the most lanes a client opens so serve never blocks on it.
	hungUp chan struct{}
}

func newBarrierManager(t *testing.T, want int) *barrierManager {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := &barrierManager{l: l, want: int64(want), release: make(chan struct{}), hungUp: make(chan struct{}, 2*DefaultPoolSize)}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			m.accepted.Add(1)
			go m.serve(conn)
		}
	}()
	return m
}

func (m *barrierManager) serve(conn net.Conn) {
	defer conn.Close()
	dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
	for {
		var req proto.ManagerReq
		if err := dec.Decode(&req); err != nil {
			m.hungUp <- struct{}{}
			return
		}
		if m.inflight.Add(1) >= m.want {
			m.once.Do(func() { close(m.release) })
		}
		<-m.release
		m.inflight.Add(-1)
		if err := enc.Encode(&proto.ManagerResp{}); err != nil {
			return
		}
	}
}

// TestManagerClientLanes: DefaultPoolSize goroutines on ONE ManagerClient
// must all be in flight at once (a lock-step client deadlocks against the
// barrier), each on a lane of its own, and Close must hang up every lane.
func TestManagerClientLanes(t *testing.T) {
	const n = DefaultPoolSize
	m := newBarrierManager(t, n)
	mc, err := DialManager(m.l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := mc.Status()
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("call %d: %v (the %d calls never overlapped)", i, err, n)
		}
	}
	if got := m.accepted.Load(); got != n {
		t.Fatalf("server accepted %d connections, want %d lanes", got, n)
	}
	if err := mc.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case <-m.hungUp:
		case <-time.After(5 * time.Second):
			t.Fatalf("Close left %d of %d lanes open", n-i, n)
		}
	}
	if _, err := mc.Status(); err == nil {
		t.Fatal("call on a closed client succeeded")
	}
}

// TestManagerClientLoneCallerUsesOneSocket: lanes open only when every
// open one is busy, so a single-goroutine client (heartbeat loops, nvmctl)
// never costs the manager more than one connection.
func TestManagerClientLoneCallerUsesOneSocket(t *testing.T) {
	m := newBarrierManager(t, 1)
	mc, err := DialManager(m.l.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	for i := 0; i < 1000; i++ {
		if _, err := mc.Status(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.accepted.Load(); got != 1 {
		t.Fatalf("1000 sequential calls opened %d connections, want 1", got)
	}
}
