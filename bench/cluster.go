package main

import (
	"fmt"
	"strings"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/rpc"
)

// cluster is geometry g2s3b-r2 in one process: 2 manager shards and 3
// benefactors on loopback TCP, replication 2, built from the constructors
// cmd/nvmstore uses, so the wire, the codecs and the servers are the real
// ones.
type cluster struct {
	mgrs []*rpc.ManagerServer
	bens []*rpc.BenefactorServer
}

// benCapacity is what each benefactor contributes. The largest workload
// keeps 2 × 64 MiB × 2 replicas live; 1 GiB each leaves both shards room
// (a benefactor splits its capacity evenly among the shards).
const benCapacity = 1 << 30

// bootCluster starts the cluster. device > 0 puts benefactor.Delay in
// front of every backend ("device 1 ms"); tr != nil puts the boundary-B
// shim outermost, so a B span includes the device time.
func bootCluster(device time.Duration, tr *tracer) (*cluster, error) {
	cl := &cluster{}
	fail := func(err error) (*cluster, error) {
		cl.close()
		return nil, err
	}
	for i := 0; i < nShards; i++ {
		ms, err := rpc.NewManagerServerWith("127.0.0.1:0", chunkSize, manager.RoundRobin, rpc.ManagerConfig{
			ShardIndex:  i,
			ShardCount:  nShards,
			Replication: replication,
		})
		if err != nil {
			return fail(fmt.Errorf("manager shard %d: %w", i, err))
		}
		cl.mgrs = append(cl.mgrs, ms)
	}
	peers := strings.Split(cl.addrs(), ",")
	for _, ms := range cl.mgrs {
		if err := ms.SetPeers(peers); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < nBens; i++ {
		var be benefactor.Backend = benefactor.NewMem()
		if device > 0 {
			be = benefactor.Delay(be, device)
		}
		if tr != nil {
			be = bShim{inner: be, tr: tr, ben: int8(i)}
		}
		bs, err := rpc.NewBenefactorServerWith("127.0.0.1:0", cl.addrs(), i, i, benCapacity, chunkSize,
			be, time.Second, rpc.BenefactorConfig{})
		if err != nil {
			return fail(fmt.Errorf("benefactor %d: %w", i, err))
		}
		cl.bens = append(cl.bens, bs)
	}
	return cl, nil
}

// addrs is the manager address list clients connect to, in shard order.
func (cl *cluster) addrs() string {
	a := make([]string, len(cl.mgrs))
	for i, ms := range cl.mgrs {
		a[i] = ms.Addr()
	}
	return strings.Join(a, ",")
}

func (cl *cluster) close() {
	for _, bs := range cl.bens {
		bs.Close()
	}
	for _, ms := range cl.mgrs {
		ms.Close()
	}
}

// used is the bytes still held on the benefactors. After every Free and
// DeleteCheckpoint it must be 0: refcounts are conserved across shards.
func (cl *cluster) used() int64 {
	var n int64
	for _, bs := range cl.bens {
		n += bs.Store().Used()
	}
	return n
}
