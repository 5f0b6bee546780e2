package rpc

import (
	"net"
	"sync"
	"time"

	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
)

// stream is one lock-step connection a pool lends out: an NVM1 chunkConn to
// a benefactor or a gobConn to a manager.
type stream interface {
	isBroken() bool
	close()
}

// pool reuses streams to one peer. A stream serializes its request/response
// pairs, so a caller that fans out needs several streams per peer for the
// requests to pipeline — the paper's aggregate bandwidth (§III-D, Tables
// III–IV) comes from keeping every contributor's SSD and NIC busy at once.
//
// At most size streams are lent at once; a borrower beyond that waits for
// a slot. A borrower takes the most recently returned idle stream (LIFO)
// and dials only when none is idle, so a lone sequential caller holds
// exactly one socket while a fan-out gets size of them. A stream that comes
// back broken is closed together with every idle one (they reach the same
// peer, which may have restarted), so the next use dials fresh. A stream
// that comes back after close is closed rather than parked.
type pool[S stream] struct {
	addr  string
	dial  func(addr string) (S, error)
	slots chan struct{}
	// wait records how long borrowers block for a slot — when it grows,
	// the pool is the bottleneck, not the SSDs — and obs mints a pool.wait
	// span for a traced borrower that blocks. Only the client chunk pool
	// sets them; nil skips the recording.
	wait *obs.Histogram
	obs  *obs.Obs

	mu     sync.Mutex
	idle   []S
	closed bool
}

func newPool[S stream](addr string, size int, dial func(addr string) (S, error)) *pool[S] {
	if size < 1 {
		size = 1
	}
	return &pool[S]{addr: addr, dial: dial, slots: make(chan struct{}, size)}
}

// get borrows a stream, dialing one if none is idle; the borrower hands it
// back with put. trace and parent name the request a pool.wait span is
// recorded under. A closed pool fails with net.ErrClosed.
func (p *pool[S]) get(trace, parent string) (S, error) {
	select {
	case p.slots <- struct{}{}: // free slot: no wait, nothing to record
	default:
		start := time.Now()
		var sp *obs.ActiveSpan
		if parent != "" {
			sp = p.obs.StartSpanAt(trace, parent, "pool.wait", start.UnixNano())
		}
		p.slots <- struct{}{}
		p.wait.Observe(time.Since(start))
		sp.End()
	}
	var s S
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.slots
		return s, net.ErrClosed
	}
	if n := len(p.idle); n > 0 {
		s = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()
	s, err := p.dial(p.addr)
	if err != nil {
		<-p.slots
	}
	return s, err
}

// put returns a stream borrowed with get.
func (p *pool[S]) put(s S) {
	p.mu.Lock()
	switch {
	case s.isBroken():
		s.close()
		for _, idle := range p.idle {
			idle.close()
		}
		p.idle = p.idle[:0]
	case p.closed:
		s.close()
	default:
		p.idle = append(p.idle, s)
	}
	p.mu.Unlock()
	<-p.slots
}

// close closes every idle stream at once and every borrowed one when it
// comes back.
func (p *pool[S]) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, s := range p.idle {
		s.close()
	}
	p.idle = nil
}

// chunkCall runs one chunk RPC on a stream borrowed from p. Failing to
// borrow is transient: the benefactor may be restarting, or its pool was
// replaced under a changed address.
func chunkCall(p *pool[*chunkConn], req proto.ChunkReq) (proto.ChunkResp, error) {
	c, err := p.get(req.TraceID, req.ParentSpanID)
	if err != nil {
		return proto.ChunkResp{}, transient(err)
	}
	resp, err := c.call(req)
	p.put(c)
	return resp, err
}
