// Package simstore runs the aggregate NVM store (manager + benefactors)
// inside the simulated cluster: every store operation is charged its
// network round trip on the cluster interconnect, its device time on the
// benefactor's SSD, and a fixed software (RPC/FUSE crossing) overhead.
// The metadata and chunk logic is the transport-agnostic code in
// internal/manager and internal/benefactor — the same code the real TCP
// transport uses — and metadata requests are driven the way the TCP
// manager server drives them: manager.Apply, then the payload copies and
// chunk deletes it returns, here charged in virtual time.
//
// Client implements store.Client, the transport-neutral interface the
// library layers (core, fusecache) are written against; the *simtime.Proc
// of the calling simulated process travels through the opaque store.Ctx.
// Its metadata calls are internal/router's, the code the TCP client runs.
package simstore

import (
	"cmp"
	"fmt"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/cluster"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/router"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/store"
)

// Wire-size constants for RPC cost accounting.
const (
	reqHeaderBytes  = 64 // request envelope
	respHeaderBytes = 64 // response envelope
	chunkRefBytes   = 16 // per-chunk entry in a lookup response
	pageHdrBytes    = 8  // per-page entry in a put-pages request
)

// ben is one running benefactor inside the simulation.
type ben struct {
	st    *benefactor.Store
	node  int
	alive bool
}

// Store is a running aggregate NVM store.
type Store struct {
	Cl          *cluster.Cluster
	Mgr         *manager.Manager
	ManagerNode int
	bens        map[int]*ben
	benOrder    []int
}

// New assembles a store on cl with one benefactor per entry of benNodes
// (benefactor i lives on cluster node benNodes[i] and contributes capacity
// bytes of its node-local SSD). The manager runs on managerNode.
func New(cl *cluster.Cluster, managerNode int, benNodes []int, capacity int64, policy manager.PlacementPolicy) *Store {
	s := &Store{
		Cl:          cl,
		Mgr:         manager.New(cl.Prof.ChunkSize, policy),
		ManagerNode: managerNode,
		bens:        make(map[int]*ben),
	}
	for i, node := range benNodes {
		b := &ben{st: benefactor.New(i, node, capacity, cl.Prof.ChunkSize, benefactor.NewMem()), node: node, alive: true}
		s.bens[i] = b
		s.benOrder = append(s.benOrder, i)
		s.register(b)
	}
	return s
}

// Benefactor returns benefactor i's store (for stats and tests).
func (s *Store) Benefactor(i int) *benefactor.Store { return s.bens[i].st }

// Benefactors returns the benefactor IDs in registration order.
func (s *Store) Benefactors() []int { return append([]int(nil), s.benOrder...) }

// Kill simulates the death of a benefactor process: subsequent chunk
// operations against it fail and the manager is informed (as its liveness
// sweep eventually would).
func (s *Store) Kill(benID int) {
	if b, ok := s.bens[benID]; ok {
		b.alive = false
		s.Mgr.Apply(&proto.ManagerReq{Op: proto.OpMarkDead, BenID: benID}, time.Duration(s.Cl.Eng.Now()))
	}
}

// Revive brings a killed benefactor back with its chunks intact. It
// re-registers like a restarted benefactor daemon, so copies the survivors
// may have taken writes for while it was dead are fenced and deleted
// before it serves again.
func (s *Store) Revive(benID int) {
	if b, ok := s.bens[benID]; ok {
		b.alive = true
		s.register(b)
	}
}

// register (re-)registers a benefactor with the manager and deletes the
// copies the manager fenced, as rpc.BenefactorServer does on startup.
func (s *Store) register(b *ben) {
	info := b.st.Info()
	resp, _ := s.Mgr.Apply(&proto.ManagerReq{Op: proto.OpRegister, BenID: info.ID, BenNode: info.Node,
		Capacity: info.Capacity, WriteVolume: info.WriteVolume}, time.Duration(s.Cl.Eng.Now()))
	for _, ref := range resp.FenceChunks {
		b.st.DeleteChunk(ref.ID) // Mem deletes never fail
	}
}

// Repair restores the configured replica count after failures: the
// manager reserves replacement copies, the payloads are copied from a live
// copy with all device and network time charged, and the copies that
// landed are published. It returns how many copies were restored and how
// many chunks are unrecoverable.
func (s *Store) Repair(p *simtime.Proc) (repaired int, lost int, err error) {
	resp, err := s.apply(p, proto.ManagerReq{Op: proto.OpRepair}, nil)
	if err == nil && resp.RepairFailed > 0 {
		err = fmt.Errorf("simstore: %d repair copies failed", resp.RepairFailed)
	}
	return resp.Repaired, len(resp.Lost), err
}

// ExpireSweep reclaims expired variables (and their benefactor space).
func (s *Store) ExpireSweep(p *simtime.Proc) ([]string, error) {
	resp, err := s.apply(p, proto.ManagerReq{Op: proto.OpExpire}, nil)
	return resp.Expired, err
}

// apply drives one metadata request the way rpc.ManagerServer does:
// manager.Apply, then the payload copies it leaves with each round's
// outcome committed, then the deletes, one request per benefactor in
// registration order. charge, when non-nil, charges the client's round
// trip to the manager once Apply has sized the reply, before the copies.
func (s *Store) apply(p *simtime.Proc, req proto.ManagerReq, charge func(*proto.ManagerResp)) (proto.ManagerResp, error) {
	resp, fx := s.Mgr.Apply(&req, time.Duration(p.Now()))
	if charge != nil {
		charge(&resp)
	}
	for len(fx.Copies) > 0 {
		errs := make([][]error, len(fx.Copies))
		for i, cp := range fx.Copies {
			errs[i] = s.copyChunk(p, cp)
		}
		fx = s.Mgr.Commit(&resp, fx, errs)
	}
	for _, d := range fx.Deletes {
		b := s.bens[d.Ben]
		if !b.alive {
			continue // dead benefactor: its space is already lost
		}
		s.overhead(p)
		s.Cl.Net.Request(p, s.ManagerNode, b.node, reqHeaderBytes+int64(len(d.IDs))*8, respHeaderBytes, nil)
		for _, id := range d.IDs {
			if err := b.st.DeleteChunk(id); err != nil {
				return resp, err
			}
		}
	}
	return resp, proto.WireErr(resp.Err)
}

// copyChunk runs one manager-driven payload copy as rpc.ManagerServer does
// and reports one error per destination. A lone destination on the
// source's benefactor is copied there: one request, a device read and a
// device write, nothing crosses the network. Otherwise the manager fetches
// the payload once and writes it to each destination in turn.
func (s *Store) copyChunk(p *simtime.Proc, cp manager.Copy) []error {
	errs := make([]error, len(cp.Dsts))
	src, err := s.live(cp.Src)
	if err == nil && len(cp.Dsts) == 1 && cp.Dsts[0].Benefactor == cp.Src.Benefactor {
		s.overhead(p)
		s.Cl.Net.Request(p, s.ManagerNode, src.node, reqHeaderBytes, respHeaderBytes, func(sp *simtime.Proc) {
			s.Cl.Nodes[src.node].SSD.Read(sp, s.Cl.Prof.ChunkSize)
			s.Cl.Nodes[src.node].SSD.Write(sp, s.Cl.Prof.ChunkSize)
		})
		errs[0] = src.st.CopyChunk(cp.Dsts[0].ID, cp.Src.ID)
		return errs
	}
	var data []byte
	if err == nil {
		data, err = s.Client(s.ManagerNode).GetChunk(p, []proto.ChunkRef{cp.Src})
	}
	for i, dst := range cp.Dsts {
		b, derr := s.live(dst)
		if errs[i] = cmp.Or(err, derr); errs[i] != nil {
			continue
		}
		s.overhead(p)
		s.Cl.Net.Transfer(p, s.ManagerNode, b.node, reqHeaderBytes+int64(len(data)))
		s.Cl.Nodes[b.node].SSD.Write(p, int64(len(data)))
		errs[i] = b.st.PutChunk(dst.ID, data)
	}
	return errs
}

// overhead charges the fixed software cost of one RPC.
func (s *Store) overhead(p *simtime.Proc) { p.Sleep(s.Cl.Prof.RPCOverhead) }

// mgrRPC charges a metadata round trip from clientNode to the manager.
func (s *Store) mgrRPC(p *simtime.Proc, clientNode int, reqExtra, respExtra int64) {
	s.overhead(p)
	s.Cl.Net.Request(p, clientNode, s.ManagerNode, reqHeaderBytes+reqExtra, respHeaderBytes+respExtra, nil)
}

// live resolves a chunk ref to a live benefactor.
func (s *Store) live(ref proto.ChunkRef) (*ben, error) {
	b, ok := s.bens[ref.Benefactor]
	if !ok {
		return nil, fmt.Errorf("%w: benefactor %d", proto.ErrBenefactorDead, ref.Benefactor)
	}
	if !b.alive {
		return nil, proto.ErrBenefactorDead
	}
	return b, nil
}

// Client returns a node-bound handle used by the cache layer on that node.
func (s *Store) Client(node int) *Client {
	return &Client{Router: router.New(mgrConn{s: s, node: node}), s: s, node: node}
}

// Client is a per-compute-node handle to the store. It implements the
// transport-neutral store.Client interface consumed by internal/fusecache
// and internal/core.
type Client struct {
	// Router supplies the metadata methods (Create, Lookup, Delete, Link,
	// Derive, Remap, SetTTL): the same code the TCP client runs, here over
	// the one simulated manager.
	router.Router
	s    *Store
	node int
}

var _ store.Client = (*Client)(nil)

// Node returns the cluster node this client is bound to.
func (c *Client) Node() int { return c.node }

// ChunkSize returns the store's striping unit.
func (c *Client) ChunkSize() int64 { return c.s.Mgr.ChunkSize() }

// Status fetches the benefactor table.
func (c *Client) Status(ctx store.Ctx) ([]proto.BenefactorInfo, error) {
	resp, err := mgrConn{s: c.s, node: c.node}.Call(ctx, 0, proto.ManagerReq{Op: proto.OpStatus})
	return resp.Bens, err
}

// mgrConn is one node's link to the simulated manager, the router's
// router.Conn. The simulated store runs a single manager shard.
type mgrConn struct {
	s    *Store
	node int
}

func (c mgrConn) Shards() int      { return 1 }
func (c mgrConn) ChunkSize() int64 { return c.s.Mgr.ChunkSize() }

// Call drives req through the manager from the client's node and charges
// its round trip, sized by wireSizes once Apply has sized the reply.
func (c mgrConn) Call(ctx store.Ctx, _ int, req proto.ManagerReq) (proto.ManagerResp, error) {
	p := cluster.ProcOf(ctx)
	return c.s.apply(p, req, func(resp *proto.ManagerResp) {
		reqExtra, respExtra := wireSizes(&req, resp)
		c.s.mgrRPC(p, c.node, reqExtra, respExtra)
	})
}

// wireSizes sizes a metadata round trip beyond its envelopes: the name and
// arguments a request carries, and the chunk map, status word, fresh
// replica set or benefactor table its reply does.
func wireSizes(req *proto.ManagerReq, resp *proto.ManagerResp) (reqExtra, respExtra int64) {
	name := int64(len(req.Name))
	fileReply := int64(len(resp.File.Chunks)) * chunkRefBytes
	switch req.Op {
	case proto.OpDelete:
		return name, 8
	case proto.OpSetTTL:
		return name + 8, 8
	case proto.OpLink:
		for _, pn := range req.Parts {
			name += int64(len(pn))
		}
		return name, fileReply
	case proto.OpDerive:
		return name + int64(len(req.Src)) + 24, fileReply
	case proto.OpRemap:
		return name + 8, int64(1+max(len(resp.NewRefs), 1)) * chunkRefBytes
	case proto.OpStatus:
		return 0, int64(len(resp.Bens)) * 48
	}
	return name, fileReply // Create, Lookup
}

// GetChunk fetches one chunk payload directly from its benefactor: small
// request out, device read on the benefactor's SSD, chunk-size response
// back (paper §III-D: "the FUSE client makes a direct connection to the
// appropriate benefactor"). refs[0] is the primary; when it is dead and
// the store keeps replicas, the read fails over via the manager.
//
// Buffer ownership: the returned slice ALIASES simulated device memory —
// this client deliberately does not implement store.BufferLender, so
// callers (the FUSE chunk cache) copy before caching and never release.
// Only the TCP path's arena-leased buffers are caller-owned (DESIGN.md
// §13).
func (c *Client) GetChunk(ctx store.Ctx, refs []proto.ChunkRef) ([]byte, error) {
	p := cluster.ProcOf(ctx)
	ref := refs[0]
	b, err := c.s.live(ref)
	if err == proto.ErrBenefactorDead {
		// Failover: ask the manager for a live copy.
		live, lerr := c.s.Mgr.LiveRef(ref.ID)
		c.s.mgrRPC(p, c.node, 8, chunkRefBytes)
		if lerr != nil {
			return nil, err
		}
		if b, err = c.s.live(live); err != nil {
			return nil, err
		}
		ref = live
	} else if err != nil {
		return nil, err
	}
	cs := c.s.Mgr.ChunkSize()
	c.s.overhead(p)
	c.s.Cl.Net.Transfer(p, c.node, b.node, reqHeaderBytes)
	c.s.Cl.Nodes[b.node].SSD.Read(p, cs)
	c.s.Cl.Net.Transfer(p, b.node, c.node, respHeaderBytes+cs)
	return b.st.GetChunk(ref.ID)
}

// copies lists the locations a write must reach: the given ref plus any
// replicas the manager tracks.
func (c *Client) copies(ref proto.ChunkRef) []proto.ChunkRef {
	reps := c.s.Mgr.Replicas(ref.ID)
	if len(reps) == 0 {
		return []proto.ChunkRef{ref}
	}
	return reps
}

// PutChunk stores a full chunk payload on its benefactor and every
// replica.
func (c *Client) PutChunk(ctx store.Ctx, refs []proto.ChunkRef, data []byte) error {
	p := cluster.ProcOf(ctx)
	var firstErr error
	stored := 0
	for _, dst := range c.copies(refs[0]) {
		b, err := c.s.live(dst)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.s.overhead(p)
		c.s.Cl.Net.Transfer(p, c.node, b.node, reqHeaderBytes+int64(len(data)))
		c.s.Cl.Nodes[b.node].SSD.Write(p, int64(len(data)))
		c.s.Cl.Net.Transfer(p, b.node, c.node, respHeaderBytes)
		if err := b.st.PutChunk(dst.ID, data); err != nil {
			return err
		}
		stored++
	}
	if stored == 0 {
		return firstErr
	}
	return nil
}

// PutPages ships only the dirty pages of a chunk to its benefactor (and
// every replica) — the write optimization of Table VII. The benefactor
// applies them with a single vectored device write.
func (c *Client) PutPages(ctx store.Ctx, refs []proto.ChunkRef, pageOffs []int64, pages [][]byte) error {
	p := cluster.ProcOf(ctx)
	var payload int64
	sizes := make([]int64, len(pages))
	for i, pg := range pages {
		payload += int64(len(pg)) + pageHdrBytes
		sizes[i] = int64(len(pg))
	}
	var firstErr error
	stored := 0
	for _, dst := range c.copies(refs[0]) {
		b, err := c.s.live(dst)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.s.overhead(p)
		c.s.Cl.Net.Transfer(p, c.node, b.node, reqHeaderBytes+payload)
		c.s.Cl.Nodes[b.node].SSD.WriteVec(p, sizes)
		c.s.Cl.Net.Transfer(p, b.node, c.node, respHeaderBytes)
		if err := b.st.PutPages(dst.ID, pageOffs, pages); err != nil {
			return err
		}
		stored++
	}
	if stored == 0 {
		return firstErr
	}
	return nil
}
