package rpc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"nvmalloc/internal/proto"
)

// TestBinaryNegotiation covers the chunk wire at the connection level: the
// handshake completes against a live benefactor and semantic errors
// round-trip through the binary error frame.
func TestBinaryNegotiation(t *testing.T) {
	r := newRig(t, 1)
	c, err := dialChunk(r.bens[0].Addr(), nil, time.Second, 500*time.Millisecond,
		proto.NewArena(testChunk), maxPayloadFor(testChunk))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	// Round trip data through the binary frames.
	payload := pattern(3, testChunk)
	if _, err := c.call(proto.ChunkReq{Op: proto.OpPutChunk, ID: 7, Data: payload}); err != nil {
		t.Fatalf("binary put: %v", err)
	}
	resp, err := c.call(proto.ChunkReq{Op: proto.OpGetChunk, ID: 7})
	if err != nil {
		t.Fatalf("binary get: %v", err)
	}
	if !bytes.Equal(resp.Data, payload) {
		t.Fatal("binary round trip corrupted payload")
	}
	// A semantic error must arrive as the mapped sentinel, not a transport
	// failure: overfill the 64-chunk benefactor until it reports ErrNoSpace.
	var semErr error
	for id := proto.ChunkID(100); id < 300; id++ {
		if _, semErr = c.call(proto.ChunkReq{Op: proto.OpPutChunk, ID: id, Data: payload}); semErr != nil {
			break
		}
	}
	if !errors.Is(semErr, proto.ErrNoSpace) {
		t.Fatalf("overfill: err = %v, want ErrNoSpace", semErr)
	}
	if c.isBroken() {
		t.Error("semantic error broke the connection")
	}
}

// TestMalformedFramesDropped sends hostile bytes at a benefactor — a stream
// that never offers the preamble, then bad frames after a successful NVM1
// handshake: the server must close the connection without decoding or
// staging anything, and must stay healthy for other clients.
func TestMalformedFramesDropped(t *testing.T) {
	r := newRig(t, 1)
	addr := r.bens[0].Addr()

	handshake := func(t *testing.T) net.Conn {
		t.Helper()
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Write([]byte{proto.Preamble}); err != nil {
			t.Fatal(err)
		}
		var ack [1]byte
		if _, err := io.ReadFull(conn, ack[:]); err != nil || ack[0] != proto.Preamble {
			t.Fatalf("handshake ack %x err %v", ack, err)
		}
		return conn
	}
	expectClosed := func(t *testing.T, conn net.Conn) {
		t.Helper()
		var b [1]byte
		if _, err := io.ReadFull(conn, b[:]); err == nil {
			t.Fatal("server kept the connection open after a malformed frame")
		}
	}

	t.Run("gob envelope instead of preamble", func(t *testing.T) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		// What the deleted gob chunk path used to accept as a request.
		var env bytes.Buffer
		if err := gob.NewEncoder(&env).Encode(&proto.ChunkReq{Op: proto.OpGetChunk, ID: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(env.Bytes()); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, conn)
		ev, ok := findSpan(r.bens[0].Obs().Spans.Spans(), "benefactor.bad-frame")
		if !ok || !ev.IsEvent() || !strings.Contains(ev.Detail, "preamble") {
			t.Errorf("no benefactor.bad-frame event for a connection that skipped the preamble (got %+v)", ev)
		}
	})

	t.Run("garbage bytes", func(t *testing.T) {
		conn := handshake(t)
		if _, err := conn.Write(bytes.Repeat([]byte{0xFF}, 64)); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, conn)
	})

	t.Run("oversized declared payload", func(t *testing.T) {
		conn := handshake(t)
		// A well-formed header whose payload claims 16 MiB against a 4 KiB
		// chunk: the server must reject on the declared length alone — the
		// bytes are never sent, so a blocking staged read would hang here.
		f := proto.Frame{Op: proto.FramePut, ID: 1, PayloadLen: 16 << 20}
		if _, err := conn.Write(f.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, conn)
	})

	t.Run("unsolicited response frame", func(t *testing.T) {
		conn := handshake(t)
		f := proto.Frame{Op: proto.FrameGet, Resp: true, ID: 1}
		if _, err := conn.Write(f.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, conn)
	})

	// The server must shrug all of that off: a normal client still works.
	st, err := OpenWith(r.mgr.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := pattern(5, testChunk)
	if err := putFile(st, "after-abuse", payload); err != nil {
		t.Fatal(err)
	}
	got, err := getFile(st, "after-abuse")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip after malformed frames mismatched")
	}
}

// TestHandshakeTransportFaultIsTransient pins the retry semantics the fault
// tests rely on: a handshake that does not get its echo — whatever the
// reason — is a dial error the caller's transient-retry path redials, and
// never a verdict about the peer.
func TestHandshakeTransportFaultIsTransient(t *testing.T) {
	arena := proto.NewArena(testChunk)

	t.Run("peer closes instead of echoing", func(t *testing.T) {
		// A listener that accepts and immediately closes: the preamble write
		// may succeed (buffered), but the ack read sees a reset/EOF.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				conn.Close()
			}
		}()
		if c, err := dialChunk(l.Addr().String(), nil, time.Second, 200*time.Millisecond, arena, maxPayloadFor(testChunk)); err == nil {
			c.close()
			t.Fatal("dial succeeded against a peer that closed instead of echoing the preamble")
		}
	})

	t.Run("preamble write fails", func(t *testing.T) {
		failDial := func(string) (net.Conn, error) {
			return &writeFailConn{}, nil
		}
		if _, err := dialChunk("ignored", failDial, time.Second, 200*time.Millisecond, arena, maxPayloadFor(testChunk)); err == nil {
			t.Fatal("dial succeeded through a conn that cannot write")
		}
	})

	// End to end: one handshake against a live benefactor is reset after the
	// preamble went out. The chunk op must succeed by retry, and every
	// connection the client opens — the surviving one included — must open
	// with the NVM1 preamble.
	t.Run("reset handshake is retried on NVM1", func(t *testing.T) {
		r := newRig(t, 1)
		var (
			mu     sync.Mutex
			dials  int
			firsts []byte // first byte each dialed connection wrote
		)
		opts := fastOpts()
		opts.PoolSize = 1
		opts.Dial = func(addr string) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			dials++
			return &sniffConn{Conn: conn, resetRead: dials == 1, first: func(b byte) {
				mu.Lock()
				firsts = append(firsts, b)
				mu.Unlock()
			}}, nil
		}
		st, err := OpenWith(r.mgr.Addr(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()

		payload := pattern(4, testChunk)
		if err := putFile(st, "hs-reset", payload); err != nil {
			t.Fatalf("put across a reset handshake: %v", err)
		}
		got, err := getFile(st, "hs-reset")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("round trip after a reset handshake mismatched")
		}
		if st.Stats().Retries == 0 {
			t.Error("the reset handshake was not retried as a transient failure")
		}
		mu.Lock()
		defer mu.Unlock()
		if len(firsts) < 2 {
			t.Fatalf("want a reset dial and a redial, saw %d connections", len(firsts))
		}
		for i, b := range firsts {
			if b != proto.Preamble {
				t.Errorf("connection %d opened with 0x%02x, not the NVM1 preamble", i, b)
			}
		}
	})
}

// sniffConn reports the first byte written on a connection and, when
// resetRead is set, tears the connection down at the first read — a reset
// arriving where the handshake echo should.
type sniffConn struct {
	net.Conn
	resetRead bool
	wrote     bool
	first     func(byte)
}

func (c *sniffConn) Write(b []byte) (int, error) {
	if !c.wrote && len(b) > 0 {
		c.wrote = true
		c.first(b[0])
	}
	return c.Conn.Write(b)
}

func (c *sniffConn) Read(b []byte) (int, error) {
	if c.resetRead {
		c.Conn.Close()
		return 0, syscall.ECONNRESET
	}
	return c.Conn.Read(b)
}

// wireTap records every chunk connection a client dials (Options.Dial =
// tap.dial), every byte it writes on them and whether it closed them, so a
// test can count dials and decode the request frames that crossed the wire.
type wireTap struct {
	mu    sync.Mutex
	conns []*tapConn
}

type tapConn struct {
	net.Conn
	mu     sync.Mutex
	sent   bytes.Buffer
	closed atomic.Bool
}

func (c *tapConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.sent.Write(b)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (w *wireTap) dial(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	c := &tapConn{Conn: conn}
	w.mu.Lock()
	w.conns = append(w.conns, c)
	w.mu.Unlock()
	return c, nil
}

func (w *wireTap) dials() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.conns)
}

// requests decodes every tapped connection: the NVM1 preamble byte, then
// request frames back to back.
func (w *wireTap) requests(t *testing.T) []proto.Frame {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	arena := proto.NewArena(testChunk)
	var out []proto.Frame
	for _, c := range w.conns {
		c.mu.Lock()
		r := bytes.NewReader(bytes.Clone(c.sent.Bytes()))
		c.mu.Unlock()
		if b, err := r.ReadByte(); err != nil || b != proto.Preamble {
			t.Fatalf("tapped connection opened with 0x%02x (%v), not the preamble", b, err)
		}
		for r.Len() > 0 {
			var f proto.Frame
			if _, err := proto.ReadFrame(r, &f, arena, maxPayloadFor(testChunk)); err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
	}
	return out
}

// writeFailConn is a net.Conn whose writes always fail, emulating a torn
// connection during the handshake.
type writeFailConn struct{ net.TCPConn }

func (c *writeFailConn) Write([]byte) (int, error)        { return 0, errors.New("injected write failure") }
func (c *writeFailConn) Close() error                     { return nil }
func (c *writeFailConn) SetDeadline(time.Time) error      { return nil }
func (c *writeFailConn) SetReadDeadline(time.Time) error  { return nil }
func (c *writeFailConn) SetWriteDeadline(time.Time) error { return nil }
