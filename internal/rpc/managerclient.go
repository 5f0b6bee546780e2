package rpc

import (
	"encoding/gob"
	"errors"
	"net"
	"time"

	"nvmalloc/internal/proto"
)

// ManagerClient is a client of one manager. Each gob stream is lock-step —
// one request in flight — so the client keeps a pool of up to
// DefaultPoolSize streams ("lanes"): a lone caller (a heartbeat loop,
// nvmctl) holds exactly one socket, while a checkpoint's flush fan-out gets
// real concurrency. A broken lane is redialed transparently, and idempotent
// metadata RPCs are retried with backoff, so a manager restart or a
// transient network fault does not kill long-running clients (benefactor
// heartbeat loops in particular).
type ManagerClient struct {
	timeout time.Duration // per-RPC deadline; 0 = none
	retry   RetryPolicy
	lanes   *pool[*gobConn]
}

// gobConn is one lock-step gob stream to a manager.
type gobConn struct {
	conn   net.Conn
	dec    *gob.Decoder
	enc    *gob.Encoder
	broken bool
}

func dialGob(addr string) (*gobConn, error) {
	conn, err := net.DialTimeout("tcp", addr, serverDialTimeout)
	if err != nil {
		return nil, err
	}
	return &gobConn{conn: conn, dec: gob.NewDecoder(conn), enc: gob.NewEncoder(conn)}, nil
}

// call runs one round trip within timeout (0: no deadline). A transport
// failure breaks the stream.
func (g *gobConn) call(req *proto.ManagerReq, resp *proto.ManagerResp, timeout time.Duration) error {
	if timeout > 0 {
		_ = g.conn.SetDeadline(time.Now().Add(timeout))
	}
	if err := g.enc.Encode(req); err != nil {
		g.broken = true
		return err
	}
	if err := g.dec.Decode(resp); err != nil {
		g.broken = true
		return err
	}
	if timeout > 0 {
		_ = g.conn.SetDeadline(time.Time{})
	}
	return nil
}

func (g *gobConn) isBroken() bool { return g.broken }
func (g *gobConn) close()         { g.conn.Close() }

// DialManager connects to a manager server; timeout bounds each metadata
// RPC round trip (0 disables the deadline). One lane is dialed up front, so
// an unreachable manager fails here.
func DialManager(addr string, timeout time.Duration) (*ManagerClient, error) {
	c := &ManagerClient{
		timeout: timeout, retry: RetryPolicy{}.withDefaults(),
		lanes: newPool(addr, DefaultPoolSize, dialGob),
	}
	ln, err := c.lanes.get("", "")
	if err != nil {
		return nil, err
	}
	c.lanes.put(ln)
	return c, nil
}

// Close closes every idle lane; a lane a call still holds is closed when
// that call returns it.
func (c *ManagerClient) Close() error {
	c.lanes.close()
	return nil
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
		ln, err := c.lanes.get("", "")
		if errors.Is(err, net.ErrClosed) {
			return resp, err
		}
		if err == nil {
			err = ln.call(&req, &resp, c.timeout)
			c.lanes.put(ln)
		}
		if err != nil {
			last = transient(err)
			continue
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
