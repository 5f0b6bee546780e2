// Package rpc runs the aggregate NVM store over real TCP: the same
// manager and benefactor logic the simulation uses (internal/manager,
// internal/benefactor), with metadata served as gob-encoded
// request/response envelopes and chunk data as NVM1 binary frames
// (internal/proto). cmd/nvmstore wraps the servers as daemons and
// cmd/nvmctl is a client; examples/realstore drives the whole stack
// in-process.
//
// Chunks live as individual files under the benefactor's directory — the
// "chunks as individual files" layout of paper §III-D — standing in for
// the node-local SSD.
package rpc

import (
	"encoding/gob"
	"net"
	"sync"
	"time"
)

// connSet tracks a server's accepted connections so Close can sever them.
// Killing a server must kill its in-flight conversations too — otherwise
// clients already pooled onto it would never observe the death.
type connSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func newConnSet() *connSet { return &connSet{conns: make(map[net.Conn]struct{})} }

func (cs *connSet) add(c net.Conn) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return false
	}
	cs.conns[c] = struct{}{}
	return true
}

func (cs *connSet) remove(c net.Conn) {
	cs.mu.Lock()
	delete(cs.conns, c)
	cs.mu.Unlock()
}

func (cs *connSet) closeAll() {
	cs.mu.Lock()
	cs.closed = true
	for c := range cs.conns {
		c.Close()
	}
	cs.conns = nil
	cs.mu.Unlock()
}

// serve accepts connections and runs each on its own goroutine.
func serve(l net.Listener, cs *connSet, handleConn func(conn net.Conn)) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		if !cs.add(conn) {
			conn.Close()
			return
		}
		go func() {
			defer cs.remove(conn)
			defer conn.Close()
			handleConn(conn)
		}()
	}
}

// serveGob runs one manager connection's request loop over gob envelopes
// until the peer disconnects or the stream breaks.
func serveGob(conn net.Conn, handle func(dec *gob.Decoder, enc *gob.Encoder) error) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		if err := handle(dec, enc); err != nil {
			return
		}
	}
}

// Timeouts for server-initiated benefactor calls (chunk deletion, COW
// copies, repair). Client-side timeouts come from Options.
const (
	serverDialTimeout = 5 * time.Second
	serverCallTimeout = 30 * time.Second
)
