// Package mpi provides the message-passing runtime the paper's workloads
// (MPI matrix multiplication and parallel quicksort) are written against:
// ranks placed on cluster nodes per the run configuration, point-to-point
// Send/Recv, and the collectives the kernels use (Barrier, Bcast,
// Scatterv, Gatherv). Inter-node traffic is charged on the simulated
// interconnect; intra-node traffic is charged as memory copies.
package mpi

import (
	"fmt"
	"math"

	"nvmalloc/internal/cluster"
	"nvmalloc/internal/netsim"
	"nvmalloc/internal/simtime"
)

// Comm is a communicator over all ranks of a run configuration.
type Comm struct {
	eng   *simtime.Engine
	net   *netsim.Network
	cfg   cluster.Config
	boxes map[boxKey]*simtime.Chan[[]byte]
	// collSeq gives each rank a running collective-call sequence number;
	// like real MPI, all ranks must invoke collectives in the same order.
	collSeq []int
	bar     *barrier
}

type boxKey struct {
	from, to, tag int
}

// New builds a communicator for cfg over net.
func New(e *simtime.Engine, net *netsim.Network, cfg cluster.Config) *Comm {
	return &Comm{
		eng:     e,
		net:     net,
		cfg:     cfg,
		boxes:   make(map[boxKey]*simtime.Chan[[]byte]),
		collSeq: make([]int, cfg.Ranks()),
		bar:     newBarrier(e, cfg.Ranks()),
	}
}

// Ranks returns the number of ranks.
func (c *Comm) Ranks() int { return c.cfg.Ranks() }

// Config returns the run configuration.
func (c *Comm) Config() cluster.Config { return c.cfg }

func (c *Comm) box(k boxKey) *simtime.Chan[[]byte] {
	b, ok := c.boxes[k]
	if !ok {
		b = simtime.NewChan[[]byte](c.eng, fmt.Sprintf("mpi %d->%d #%d", k.from, k.to, k.tag))
		c.boxes[k] = b
	}
	return b
}

// Send transmits data from rank `from` to rank `to` with the given tag,
// charging the sender the full transport time. The payload is copied.
func (c *Comm) Send(p *simtime.Proc, from, to, tag int, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.net.Transfer(p, c.cfg.RankNode(from), c.cfg.RankNode(to), int64(len(data)))
	c.box(boxKey{from, to, tag}).Send(cp)
}

// Recv blocks rank `to` until a message with the tag arrives from `from`.
func (c *Comm) Recv(p *simtime.Proc, from, to, tag int) []byte {
	return c.box(boxKey{from, to, tag}).Recv(p)
}

// barrier is a reusable generation barrier.
type barrier struct {
	eng   *simtime.Engine
	n     int
	count int
	fut   *simtime.Future[struct{}]
}

func newBarrier(e *simtime.Engine, n int) *barrier {
	return &barrier{eng: e, n: n, fut: simtime.NewFuture[struct{}](e, "barrier")}
}

func (b *barrier) wait(p *simtime.Proc) {
	fut := b.fut
	b.count++
	if b.count == b.n {
		b.count = 0
		b.fut = simtime.NewFuture[struct{}](b.eng, "barrier")
		fut.Set(struct{}{})
		return
	}
	fut.Wait(p)
}

// Barrier synchronizes all ranks; each rank is charged a latency
// proportional to the tree depth of a real barrier.
func (c *Comm) Barrier(p *simtime.Proc, rank int) {
	depth := int(math.Ceil(math.Log2(float64(c.Ranks()))))
	if depth < 1 {
		depth = 1
	}
	p.Sleep(simtime.Duration(depth) * 60_000) // ~60us per tree level
	c.bar.wait(p)
}

// Bcast distributes root's data to every rank using a rank-order chain.
// Rank order is node-major, so the payload crosses each node boundary
// exactly once (bandwidth-optimal, like MPI's large-message pipelines),
// intra-node hops are memory copies, and successive Bcast calls — e.g. the
// block-wise matrix broadcast — pipeline down the chain naturally. Every
// rank returns its own copy.
func (c *Comm) Bcast(p *simtime.Proc, rank, root int, data []byte) []byte {
	n := c.Ranks()
	tag := -(1 + c.collSeq[rank])
	c.collSeq[rank]++
	if n == 1 {
		cp := make([]byte, len(data))
		copy(cp, data)
		return cp
	}
	vrank := (rank - root + n) % n
	var buf []byte
	if vrank == 0 {
		buf = make([]byte, len(data))
		copy(buf, data)
	} else {
		prev := (vrank - 1 + root) % n
		buf = c.Recv(p, prev, rank, tag)
	}
	if vrank < n-1 {
		next := (vrank + 1 + root) % n
		c.Send(p, rank, next, tag, buf)
	}
	return buf
}

// Scatterv sends parts[i] to rank i (root keeps its own slice). Only the
// root passes parts; other ranks pass nil and receive their piece.
func (c *Comm) Scatterv(p *simtime.Proc, rank, root int, parts [][]byte) []byte {
	tag := -(1 + c.collSeq[rank])
	c.collSeq[rank]++
	if rank == root {
		for r := 0; r < c.Ranks(); r++ {
			if r == root {
				continue
			}
			c.Send(p, root, r, tag, parts[r])
		}
		cp := make([]byte, len(parts[root]))
		copy(cp, parts[root])
		return cp
	}
	return c.Recv(p, root, rank, tag)
}

// Gatherv collects each rank's part at the root, which receives them in
// rank order. Non-root ranks return nil.
func (c *Comm) Gatherv(p *simtime.Proc, rank, root int, part []byte) [][]byte {
	tag := -(1 + c.collSeq[rank])
	c.collSeq[rank]++
	if rank != root {
		c.Send(p, rank, root, tag, part)
		return nil
	}
	out := make([][]byte, c.Ranks())
	cp := make([]byte, len(part))
	copy(cp, part)
	out[root] = cp
	for r := 0; r < c.Ranks(); r++ {
		if r == root {
			continue
		}
		out[r] = c.Recv(p, r, root, tag)
	}
	return out
}

// RunRanks spawns one proc per rank executing body and returns after all
// ranks finish (the mpirun of the simulation).
func RunRanks(e *simtime.Engine, cfg cluster.Config, body func(p *simtime.Proc, rank int)) {
	wg := e.GoEach("rank", cfg.Ranks(), func(p *simtime.Proc, rank int) {
		body(p, rank)
	})
	e.Go("mpirun", func(p *simtime.Proc) { wg.Wait(p) })
}
