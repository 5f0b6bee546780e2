package rpc

import (
	"encoding/gob"
	"net"
	"sync"
	"time"

	"nvmalloc/internal/proto"
)

// ManagerClient is a client of one manager. Each gob stream is lock-step —
// one request in flight — so the client keeps up to DefaultPoolSize streams
// ("lanes"): a call takes the most recently used idle lane, or opens a new
// one only when every open lane is busy. A lone caller (a heartbeat loop,
// nvmctl) therefore holds exactly one socket, while a checkpoint's flush
// fan-out gets real concurrency. A broken lane is redialed transparently,
// and idempotent metadata RPCs are retried with backoff, so a manager
// restart or a transient network fault does not kill long-running clients
// (benefactor heartbeat loops in particular).
type ManagerClient struct {
	addr    string
	timeout time.Duration // per-RPC deadline; 0 = none
	retry   RetryPolicy
	// slots bounds the lanes in use; a caller beyond that waits here.
	slots chan struct{}

	mu     sync.Mutex
	idle   []*mgrLane // LIFO stack, so the warm lane is reused first
	closed bool
}

// mgrLane is one gob stream to the manager, owned by a single call at a
// time. A nil conn means "not dialed" (fresh, or dropped after a fault).
type mgrLane struct {
	conn net.Conn
	dec  *gob.Decoder
	enc  *gob.Encoder
}

// DialManager connects to a manager server with no per-RPC deadline.
func DialManager(addr string) (*ManagerClient, error) { return DialManagerTimeout(addr, 0) }

// DialManagerTimeout connects to a manager server; timeout bounds each
// metadata RPC round trip (0 disables the deadline).
func DialManagerTimeout(addr string, timeout time.Duration) (*ManagerClient, error) {
	c := &ManagerClient{
		addr: addr, timeout: timeout, retry: RetryPolicy{}.withDefaults(),
		slots: make(chan struct{}, DefaultPoolSize),
	}
	ln := &mgrLane{}
	if err := ln.dial(addr); err != nil {
		return nil, err
	}
	c.idle = append(c.idle, ln)
	return c, nil
}

// Close closes every idle lane; a lane a call still holds is closed when
// that call returns it.
func (c *ManagerClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	var err error
	for _, ln := range c.idle {
		if ln.conn != nil {
			err = ln.conn.Close()
		}
	}
	c.idle = nil
	return err
}

func (c *ManagerClient) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// takeLane returns the most recently released idle lane, or a new undialed
// one when all open lanes are busy. The caller holds a slot.
func (c *ManagerClient) takeLane() *mgrLane {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.idle); n > 0 {
		ln := c.idle[n-1]
		c.idle = c.idle[:n-1]
		return ln
	}
	return &mgrLane{}
}

func (c *ManagerClient) putLane(ln *mgrLane) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		ln.drop()
		return
	}
	c.idle = append(c.idle, ln)
}

func (ln *mgrLane) dial(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, serverDialTimeout)
	if err != nil {
		return err
	}
	ln.conn, ln.dec, ln.enc = conn, gob.NewDecoder(conn), gob.NewEncoder(conn)
	return nil
}

func (ln *mgrLane) drop() {
	if ln.conn != nil {
		ln.conn.Close()
		ln.conn = nil
	}
}

// retryableOp reports whether a manager RPC may be reissued after a
// transport failure. Ops with create-once semantics (Create, Link, Derive,
// Remap, Delete) are excluded: the lost response may have committed, and a
// blind retry would turn that success into a spurious error.
func retryableOp(op proto.Op) bool {
	switch op {
	case proto.OpRegister, proto.OpBeat, proto.OpLookup, proto.OpStatus,
		proto.OpSetTTL, proto.OpExpire, proto.OpRepair, proto.OpMarkDead,
		proto.OpExportRange:
		// ExportRange is read-only. RetainRefs/LinkRefs/ReleaseRefs are
		// NOT retryable: a lost response may have committed the refcount
		// change, and a blind replay would double-count a hold.
		return true
	}
	return false
}

func (c *ManagerClient) call(req proto.ManagerReq) (proto.ManagerResp, error) {
	c.slots <- struct{}{}
	defer func() { <-c.slots }()
	ln := c.takeLane()
	defer c.putLane(ln)
	var resp proto.ManagerResp
	attempts := c.retry.MaxAttempts
	if !retryableOp(req.Op) {
		attempts = 1
	}
	var last error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			time.Sleep(c.retry.backoff(attempt - 1))
		}
		if c.isClosed() {
			return resp, net.ErrClosed
		}
		if ln.conn == nil {
			if err := ln.dial(c.addr); err != nil {
				last = transient(err)
				continue
			}
		}
		if c.timeout > 0 {
			_ = ln.conn.SetDeadline(time.Now().Add(c.timeout))
		}
		if err := ln.enc.Encode(&req); err != nil {
			ln.drop()
			last = transient(err)
			continue
		}
		if err := ln.dec.Decode(&resp); err != nil {
			ln.drop()
			last = transient(err)
			continue
		}
		if c.timeout > 0 {
			_ = ln.conn.SetDeadline(time.Time{})
		}
		return resp, proto.WireErr(resp.Err)
	}
	return resp, last
}

// Register announces a benefactor to the manager.
func (c *ManagerClient) Register(id, node int, addr string, capacity int64) error {
	_, err := c.call(proto.ManagerReq{Op: proto.OpRegister, BenID: id, BenNode: node, BenAddr: addr, Capacity: capacity})
	return err
}

// Heartbeat refreshes a benefactor's liveness.
func (c *ManagerClient) Heartbeat(id int, writeVolume int64) error {
	_, err := c.call(proto.ManagerReq{Op: proto.OpBeat, BenID: id, WriteVolume: writeVolume})
	return err
}

// Expire reclaims every file whose lifetime has passed and returns their
// names.
func (c *ManagerClient) Expire() ([]string, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpExpire})
	return resp.Expired, err
}

// Status returns the benefactor table.
func (c *ManagerClient) Status() ([]proto.BenefactorInfo, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpStatus})
	return resp.Bens, err
}

// StatusDetail returns the full status envelope: benefactor table (with
// heartbeat ages and debug endpoints), chunk geometry, under-replication
// backlog, and the manager's own debug endpoint.
func (c *ManagerClient) StatusDetail() (proto.ManagerResp, error) {
	return c.call(proto.ManagerReq{Op: proto.OpStatus})
}

// RepairResult summarizes one repair pass.
type RepairResult struct {
	Repaired int // replica copies restored
	Failed   int // copy operations that failed
	Lost     []proto.ChunkID
	// UnderReplicated is the backlog remaining after the pass.
	UnderReplicated int
}

// Repair re-replicates under-replicated chunks onto live benefactors and
// reports chunks with no surviving copy.
func (c *ManagerClient) Repair() (RepairResult, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpRepair})
	if err != nil {
		return RepairResult{}, err
	}
	r := RepairResult{Repaired: resp.Repaired, Failed: resp.RepairFailed, Lost: resp.Lost}
	if sr, serr := c.call(proto.ManagerReq{Op: proto.OpStatus}); serr == nil {
		r.UnderReplicated = sr.UnderReplicated
	}
	return r, nil
}

// MarkDead forcibly declares a benefactor dead ahead of heartbeat expiry
// (fault injection and operator intervention).
func (c *ManagerClient) MarkDead(benID int) error {
	_, err := c.call(proto.ManagerReq{Op: proto.OpMarkDead, BenID: benID})
	return err
}

// UnderReplicated returns the number of chunks currently holding fewer live
// copies than the store's replication factor.
func (c *ManagerClient) UnderReplicated() (int, error) {
	resp, err := c.call(proto.ManagerReq{Op: proto.OpStatus})
	return resp.UnderReplicated, err
}
