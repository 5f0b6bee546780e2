// Package netsim models the cluster interconnect. Each node owns a
// full-duplex NIC (independent send and receive resources); a transfer of n
// bytes from node a to node b charges a's TX side, a one-way message
// latency, and b's RX side. Transfers between two ranks on the same node
// bypass the NIC and are charged at intra-node memory-copy bandwidth.
//
// This store-and-forward model reproduces the effects the paper's
// evaluation depends on: broadcast cost grows when many clients hammer one
// benefactor's link (Fig. 3's R-SSD(8:8:1) case), and remote-SSD STREAM
// falls further behind local-SSD (Fig. 2).
package netsim

import (
	"fmt"
	"time"

	"nvmalloc/internal/simtime"
	"nvmalloc/internal/sysprof"
)

// Stats counts traffic through the network.
type Stats struct {
	Messages int64
	Bytes    int64
	// LocalMessages/LocalBytes are intra-node transfers that bypassed the
	// NIC.
	LocalMessages int64
	LocalBytes    int64
}

// NIC is one node's network interface.
type NIC struct {
	node int
	tx   *simtime.Resource
	rx   *simtime.Resource
}

// Network is the cluster interconnect.
type Network struct {
	eng  *simtime.Engine
	prof sysprof.NetworkProfile
	nics []*NIC
	s    Stats
}

// New builds a network with one NIC per node. Each NIC exposes one
// resource token per bonded lane: concurrent flows share the aggregate
// bandwidth, but a single flow is capped at one lane's worth.
func New(e *simtime.Engine, prof sysprof.NetworkProfile, nodes int) *Network {
	if prof.Lanes < 1 {
		prof.Lanes = 1
	}
	n := &Network{eng: e, prof: prof}
	for i := 0; i < nodes; i++ {
		n.nics = append(n.nics, &NIC{
			node: i,
			tx:   simtime.NewResource(e, fmt.Sprintf("nic%d.tx", i), prof.Lanes),
			rx:   simtime.NewResource(e, fmt.Sprintf("nic%d.rx", i), prof.Lanes),
		})
	}
	return n
}

// Nodes returns the number of NICs.
func (n *Network) Nodes() int { return len(n.nics) }

// xferTime returns the serialization time of one flow (one lane).
func (n *Network) xferTime(size int64) time.Duration {
	return time.Duration(float64(size) / (n.prof.LinkBW / float64(n.prof.Lanes)) * float64(time.Second))
}

// Transfer moves size bytes from node src to node dst, charging p the full
// transport time. Intra-node transfers are charged as memory copies.
func (n *Network) Transfer(p *simtime.Proc, src, dst int, size int64) {
	if size < 0 {
		panic("netsim: negative transfer size")
	}
	if src == dst {
		n.s.LocalMessages++
		n.s.LocalBytes += size
		p.Sleep(time.Duration(float64(size) / n.prof.LocalCopyBW * float64(time.Second)))
		return
	}
	n.s.Messages++
	n.s.Bytes += size
	t := n.xferTime(size)
	// Cut-through: the sender's TX lane and the receiver's RX lane are
	// held simultaneously for the serialization time, so one flow's wall
	// time is latency + size/laneBW while both endpoints stay contended.
	// Acquisition is always tx-then-rx and no flow ever waits on a tx
	// while holding an rx, so the wait graph is acyclic — deadlock-free
	// under arbitrary communication patterns.
	tx, rx := n.nics[src].tx, n.nics[dst].rx
	tx.Acquire(p)
	rx.Acquire(p)
	p.Sleep(n.prof.MsgLatency + t)
	rx.Release(p)
	tx.Release(p)
}

// Request models an RPC round trip: a reqSize-byte request from src to dst,
// server-side work performed by serve (may be nil), and a respSize-byte
// response back. It charges p the complete round trip.
func (n *Network) Request(p *simtime.Proc, src, dst int, reqSize, respSize int64, serve func(*simtime.Proc)) {
	n.Transfer(p, src, dst, reqSize)
	if serve != nil {
		serve(p)
	}
	n.Transfer(p, dst, src, respSize)
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats { return n.s }

// ResetStats zeroes the counters.
func (n *Network) ResetStats() { n.s = Stats{} }

// TXBusy returns the cumulative busy time of node i's send side.
func (n *Network) TXBusy(i int) time.Duration { return n.nics[i].tx.BusyTime() }
