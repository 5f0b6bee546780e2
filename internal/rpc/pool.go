package rpc

import (
	"time"

	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
)

// connPool is a fixed-size pool of NVM1 connections to one benefactor. A
// single connection serializes request/response pairs, so a client that
// fans chunk transfers out (the chunk cache's request gate) needs several
// streams per benefactor for the transfers to actually pipeline — the paper's aggregate
// bandwidth (§III-D, Tables III–IV) comes from keeping every contributor's
// SSD and NIC busy at once.
//
// Connections are dialed lazily: the pool starts as size permits to dial,
// and a slot whose connection broke mid-call is redialed on next use.
type connPool struct {
	addr string
	dial func(addr string) (*chunkConn, error)
	// free holds the pool's slots. nil means "not dialed yet" — the taker
	// dials. Capacity bounds the number of live connections.
	free chan *chunkConn
	// wait records how long callers block for a free slot — when it grows,
	// the pool (Options.PoolSize) is the bottleneck, not the SSDs. May be
	// nil (recording is then skipped).
	wait *obs.Histogram
	// obs mints pool.wait spans under traced requests, so pool contention
	// shows up in the waterfall as its own layer. May be nil/disabled.
	obs *obs.Obs
}

func newConnPool(addr string, size int, dial func(addr string) (*chunkConn, error), o *obs.Obs, wait *obs.Histogram) *connPool {
	if size < 1 {
		size = 1
	}
	p := &connPool{addr: addr, dial: dial, free: make(chan *chunkConn, size), wait: wait, obs: o}
	for i := 0; i < size; i++ {
		p.free <- nil
	}
	return p
}

// call borrows a connection (dialing if the slot is empty), performs one
// chunk RPC, and returns the connection to the pool. A connection whose
// stream broke is closed and its slot reverts to "not dialed". Dial
// failures are transient: the benefactor may be restarting.
func (p *connPool) call(req proto.ChunkReq) (proto.ChunkResp, error) {
	var c *chunkConn
	select {
	case c = <-p.free: // free slot: no wait, nothing to record
	default:
		start := time.Now()
		var sp *obs.ActiveSpan
		if req.ParentSpanID != "" {
			sp = p.obs.StartSpanAt(req.TraceID, req.ParentSpanID, "pool.wait", start.UnixNano())
		}
		c = <-p.free
		p.wait.Observe(time.Since(start))
		sp.End()
	}
	if c == nil {
		var err error
		c, err = p.dial(p.addr)
		if err != nil {
			p.free <- nil
			return proto.ChunkResp{}, transient(err)
		}
	}
	resp, err := c.call(req)
	if c.isBroken() {
		c.close()
		p.free <- nil
	} else {
		p.free <- c
	}
	return resp, err
}

// close tears down every idle connection. Slots currently borrowed by
// in-flight calls are closed by their borrowers (the pool is only closed
// after the store's user is done issuing requests).
func (p *connPool) close() {
	for {
		select {
		case c := <-p.free:
			if c != nil {
				c.close()
			}
		default:
			return
		}
	}
}
