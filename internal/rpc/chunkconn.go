package rpc

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"nvmalloc/internal/proto"
)

// chunkConn is a client connection to one benefactor, speaking NVM1 binary
// frames (handshake at dial).
type chunkConn struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	// The wire arena leases response payloads (bounded by maxPayload, 2×
	// chunk), scratch holds the encoded request header+meta, and wbufs
	// scatter-gathers header and caller payload onto the socket without a
	// staging copy.
	arena      *proto.Arena
	maxPayload int
	freq       proto.Frame
	fresp      proto.Frame
	scratch    []byte
	wbufs      net.Buffers
	// timeout bounds one request/response round trip (a deadline on the
	// socket, so a wedged or black-holed benefactor cannot hang the caller
	// forever). 0 means no deadline.
	timeout time.Duration
	// broken is set when the stream failed mid-call; the connection cannot
	// be reused (request/response framing is lost).
	broken bool
}

// dialChunk connects to a benefactor and runs the NVM1 handshake. dial
// overrides the transport (fault injection); when nil a plain TCP dial with
// dialTimeout is used. callTimeout becomes the per-RPC deadline of the
// resulting connection. A handshake that does not get its echo fails the
// dial; the caller's transient-retry path redials.
func dialChunk(addr string, dial func(string) (net.Conn, error), dialTimeout, callTimeout time.Duration, arena *proto.Arena, maxPayload int) (*chunkConn, error) {
	var conn net.Conn
	var err error
	if dial != nil {
		conn, err = dial(addr)
	} else {
		conn, err = net.DialTimeout("tcp", addr, dialTimeout)
	}
	if err != nil {
		return nil, err
	}
	hsTimeout := dialTimeout
	if callTimeout > 0 && (hsTimeout <= 0 || callTimeout < hsTimeout) {
		hsTimeout = callTimeout
	}
	if err := handshake(conn, hsTimeout); err != nil {
		conn.Close()
		return nil, err
	}
	return &chunkConn{
		conn: conn, br: bufio.NewReaderSize(conn, 64<<10),
		arena: arena, maxPayload: maxPayload, timeout: callTimeout,
	}, nil
}

// handshake performs the client half of the NVM1 handshake: send the
// preamble, require the echo.
func handshake(conn net.Conn, timeout time.Duration) error {
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	if _, err := conn.Write([]byte{proto.Preamble}); err != nil {
		return err
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("rpc: NVM1 handshake: %w", err)
	}
	if ack[0] != proto.Preamble {
		return fmt.Errorf("rpc: unexpected NVM1 handshake ack 0x%02x", ack[0])
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	return nil
}

func (c *chunkConn) call(req proto.ChunkReq) (proto.ChunkResp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var resp proto.ChunkResp
	if c.timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	// Encode/decode failures are transport-level: the round trip did not
	// complete, so they are wrapped as transient (retryable) errors.
	resp, err := c.roundTripBinary(&req)
	if err != nil {
		c.broken = true
		return resp, transient(err)
	}
	if c.timeout > 0 {
		_ = c.conn.SetDeadline(time.Time{})
	}
	return resp, proto.WireErr(resp.Err)
}

// roundTripBinary ships one chunk op as an NVM1 frame. The payload goes out
// straight from the caller's buffer (net.Buffers scatter-gather — no
// staging copy) and the response payload comes back as an arena lease the
// caller owns (Store.readAt and the chunk cache release it when done).
func (c *chunkConn) roundTripBinary(req *proto.ChunkReq) (proto.ChunkResp, error) {
	var resp proto.ChunkResp
	fop, ok := proto.FrameOpOf(req.Op)
	if !ok {
		return resp, fmt.Errorf("rpc: op %q has no binary frame", req.Op)
	}
	f := &c.freq
	f.Op, f.Resp = fop, false
	f.ID, f.Aux = req.ID, 0
	f.Trace, f.Parent, f.Var, f.Err = req.TraceID, req.ParentSpanID, req.VarName, ""
	f.PageOffs, f.PageLens = f.PageOffs[:0], f.PageLens[:0]
	f.MoreIDs = req.MoreIDs
	c.wbufs = c.wbufs[:0]
	c.wbufs = append(c.wbufs, nil) // header+meta placeholder
	payloadLen := 0
	switch req.Op {
	case proto.OpPutChunk:
		payloadLen = len(req.Data)
		if payloadLen > 0 {
			c.wbufs = append(c.wbufs, req.Data)
		}
	case proto.OpPutPages:
		if len(req.PageOffs) != len(req.PageData) {
			return resp, fmt.Errorf("rpc: %d page offsets but %d pages", len(req.PageOffs), len(req.PageData))
		}
		for i, pg := range req.PageData {
			f.PageOffs = append(f.PageOffs, req.PageOffs[i])
			f.PageLens = append(f.PageLens, len(pg))
			payloadLen += len(pg)
			if len(pg) > 0 {
				c.wbufs = append(c.wbufs, pg)
			}
		}
		f.Aux = uint64(len(req.PageData))
	case proto.OpDeleteChunk:
		f.Aux = uint64(len(req.MoreIDs))
	case proto.OpCopyChunk:
		f.Aux = uint64(req.SrcID)
	}
	f.PayloadLen = payloadLen
	c.scratch = f.AppendTo(c.scratch[:0])
	c.wbufs[0] = c.scratch
	wb := c.wbufs // WriteTo consumes its receiver; keep c.wbufs reusable
	if _, err := wb.WriteTo(c.conn); err != nil {
		return resp, err
	}
	payload, err := proto.ReadFrame(c.br, &c.fresp, c.arena, c.maxPayload)
	if err != nil {
		return resp, err
	}
	if !c.fresp.Resp {
		c.arena.Put(payload)
		return resp, fmt.Errorf("rpc: request frame where response expected")
	}
	resp.Err = c.fresp.Err
	resp.Data = payload
	return resp, nil
}

func (c *chunkConn) isBroken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

func (c *chunkConn) close() { c.conn.Close() }
