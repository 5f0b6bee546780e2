package rpc_test

import (
	"bytes"
	"testing"
	"time"

	"nvmalloc"
	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/rpc"
)

// seqCluster starts a manager at replication 2 and three loopback
// benefactors, each backend taking device per chunk operation, with room for
// a region of regionBytes, and returns the manager's address.
func seqCluster(tb testing.TB, chunk, regionBytes int64, device time.Duration) string {
	tb.Helper()
	ms, err := rpc.NewManagerServerWith("127.0.0.1:0", chunk, manager.RoundRobin, rpc.ManagerConfig{Replication: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ms.Close() })
	for i := 0; i < 3; i++ {
		var backend benefactor.Backend = benefactor.NewMem()
		if device > 0 {
			backend = benefactor.Delay(backend, device)
		}
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 2*regionBytes, chunk, backend, 0)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { bs.Close() })
	}
	return ms.Addr()
}

// connectSeq opens a facade client with a chunk cache of cacheBytes and
// returns it with the rpc.Store underneath.
func connectSeq(tb testing.TB, addr string, cacheBytes int64) (*nvmalloc.Client, *rpc.Store) {
	tb.Helper()
	c, err := nvmalloc.Connect(addr, nvmalloc.ConnectConfig{CacheBytes: cacheBytes})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c, c.ChunkCache().Store().(*rpc.StoreClient).Store()
}

// TestSeqOverwriteFetchesNothing is an absolute gate on the write path: a
// sequential overwrite of a region four times the chunk cache, so that
// every chunk was evicted before it is written again, reads nothing from
// the benefactors. A fresh client then reads back what it wrote.
func TestSeqOverwriteFetchesNothing(t *testing.T) {
	const (
		chunk  = 64 << 10
		cache  = 256 << 10
		region = 4 * cache
		op     = 256 << 10
	)
	addr := seqCluster(t, chunk, region, 0)
	c, st := connectSeq(t, addr, cache)
	r, err := c.Malloc(nil, region, nvmalloc.WithName("seq"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, region)
	pass := func(gen byte) {
		for i := range want {
			want[i] = gen + byte(i>>12)
		}
		for off := 0; off < region; off += op {
			if err := r.WriteAt(nil, int64(off), want[off:off+op]); err != nil {
				t.Fatal(err)
			}
			if err := r.Sync(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass(1) // known-zero chunks: nothing to read on either side
	gets := st.Stats().ChunkGets
	pass(2)
	if n := st.Stats().ChunkGets - gets; n != 0 {
		t.Fatalf("overwrite pass issued %d chunk gets, want 0", n)
	}
	c2, _ := connectSeq(t, addr, cache)
	r2, err := c2.Attach(nil, "seq")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, region)
	if err := r2.ReadAt(nil, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("store does not hold the overwrite")
	}
}

// BenchmarkSeqWriteSync is the local row of the seq-stream write ledger
// (EXPERIMENTS.md): 1 MiB WriteAt+Sync ops sweeping a region four times the
// chunk cache, on three 1 ms devices at replication 2 — seq-stream's timed
// op with one rank. Each op overwrites four chunks whole that were evicted
// since their last write. Reports ms/op and chunk gets per op.
func BenchmarkSeqWriteSync(b *testing.B) {
	const (
		chunk  = 256 << 10
		cache  = 4 << 20
		region = 4 * cache
		op     = 1 << 20
	)
	addr := seqCluster(b, chunk, region, time.Millisecond)
	c, st := connectSeq(b, addr, cache)
	r, err := c.Malloc(nil, region, nvmalloc.WithName("seq"))
	if err != nil {
		b.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0x5A}, op)
	sweep := func(ops int) {
		for i := 0; i < ops; i++ {
			buf[0] = byte(i)
			if err := r.WriteAt(nil, int64(i*op%region), buf); err != nil {
				b.Fatal(err)
			}
			if err := r.Sync(nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	sweep(region / op) // populate: known-zero chunks read nothing
	gets := st.Stats().ChunkGets
	b.ResetTimer()
	sweep(b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(st.Stats().ChunkGets-gets)/float64(b.N), "gets/op")
}
