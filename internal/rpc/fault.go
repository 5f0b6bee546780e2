package rpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/proto"
)

// Fault injection for the real TCP data path. Two layers are covered:
//
//   - FaultController/faultConn corrupt the *network*: a controller's Dial
//     method plugs into Options.Dial, and every connection it produces can
//     delay, black-hole, reset, or tear writes on command. This is how the
//     race-enabled tests stage dead benefactors, wedged links, and torn frames
//     deterministically.
//   - FlakyBackend corrupts the *storage*: it wraps a benefactor.Backend
//     and fails a budget of operations, standing in for a dying SSD behind
//     a healthy NIC.

// FaultMode selects the fault a FaultController injects.
type FaultMode int32

const (
	// FaultNone passes traffic through untouched.
	FaultNone FaultMode = iota
	// FaultDelay sleeps Delay before each faulted write.
	FaultDelay
	// FaultBlackhole swallows writes: the request never reaches the
	// server, so the caller's read blocks until its deadline fires — a
	// wedged benefactor or a silently dropping network.
	FaultBlackhole
	// FaultReset closes the connection instead of writing — a crashed
	// benefactor mid-conversation.
	FaultReset
	// FaultPartialWrite transmits roughly half of one write and then
	// closes the connection — a torn frame.
	FaultPartialWrite
)

// FaultController injects faults into every connection its Dial method
// produced. Tests flip the mode at any time; a budget bounds how many
// writes are faulted before the controller reverts to FaultNone.
type FaultController struct {
	mu     sync.Mutex
	mode   FaultMode
	delay  time.Duration
	budget int // faulted ops remaining; < 0 means unlimited
}

// Set arms the controller: the next budget faulted writes (budget < 0 =
// until Clear) experience mode. delay only matters for FaultDelay.
func (f *FaultController) Set(mode FaultMode, delay time.Duration, budget int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mode, f.delay, f.budget = mode, delay, budget
}

// Clear disarms the controller.
func (f *FaultController) Clear() { f.Set(FaultNone, 0, 0) }

// take consumes one faulted operation from the budget.
func (f *FaultController) take() (FaultMode, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mode == FaultNone || f.budget == 0 {
		return FaultNone, 0
	}
	if f.budget > 0 {
		f.budget--
	}
	return f.mode, f.delay
}

// Dial is a drop-in for Options.Dial: a TCP dial whose connection routes
// writes through the controller.
func (f *FaultController) Dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, ctl: f}, nil
}

// faultConn wraps a net.Conn, corrupting the write path on command. Reads
// pass through untouched (and still honor deadlines), so a black-holed
// request surfaces as a read timeout — exactly how a wedged peer looks.
type faultConn struct {
	net.Conn
	ctl *FaultController
}

var errInjectedReset = errors.New("faultconn: injected connection reset")

func (c *faultConn) Write(b []byte) (int, error) {
	switch mode, delay := c.ctl.take(); mode {
	case FaultDelay:
		time.Sleep(delay)
	case FaultBlackhole:
		return len(b), nil // claim success; the bytes are gone
	case FaultReset:
		c.Conn.Close()
		return 0, errInjectedReset
	case FaultPartialWrite:
		n := len(b) / 2
		if n > 0 {
			n, _ = c.Conn.Write(b[:n])
		}
		c.Conn.Close()
		return n, errInjectedReset
	}
	return c.Conn.Write(b)
}

// FlakyBackend wraps a benefactor.Backend and fails a budget of operations
// with an injected I/O error — a dying SSD rather than a dying network.
// The error crosses the wire as a non-sentinel string, so clients treat it
// as a replica failure and fail over. Safe for concurrent use.
type FlakyBackend struct {
	inner benefactor.Backend

	mu                 sync.Mutex
	failGets, failPuts int
}

// NewFlakyBackend wraps inner with fault injection disabled.
func NewFlakyBackend(inner benefactor.Backend) *FlakyBackend {
	return &FlakyBackend{inner: inner}
}

// FailGets makes the next n Gets fail (n < 0 = until further notice).
func (f *FlakyBackend) FailGets(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failGets = n
}

// FailPuts makes the next n Puts fail (n < 0 = until further notice).
func (f *FlakyBackend) FailPuts(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failPuts = n
}

func (f *FlakyBackend) takeFault(counter *int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if *counter == 0 {
		return false
	}
	if *counter > 0 {
		*counter--
	}
	return true
}

// Put implements benefactor.Backend.
func (f *FlakyBackend) Put(id proto.ChunkID, data []byte) error {
	if f.takeFault(&f.failPuts) {
		return fmt.Errorf("flaky backend: injected write failure on chunk %d", id)
	}
	return f.inner.Put(id, data)
}

// Get implements benefactor.Backend.
func (f *FlakyBackend) Get(id proto.ChunkID) ([]byte, error) {
	if f.takeFault(&f.failGets) {
		return nil, fmt.Errorf("flaky backend: injected read failure on chunk %d", id)
	}
	return f.inner.Get(id)
}

// Delete implements benefactor.Backend.
func (f *FlakyBackend) Delete(id proto.ChunkID) error { return f.inner.Delete(id) }

// Has implements benefactor.Backend.
func (f *FlakyBackend) Has(id proto.ChunkID) bool { return f.inner.Has(id) }
