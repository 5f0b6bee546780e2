package nvmalloc_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"nvmalloc"
	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/rpc"
)

// liveCluster spins up a replicated manager + n in-memory benefactors on
// loopback — the daemons cmd/nvmstore runs, in-process.
type liveCluster struct {
	mgr  *rpc.ManagerServer
	bens []*rpc.BenefactorServer
}

func startCluster(t testing.TB, n int, chunk int64, replication int) *liveCluster {
	t.Helper()
	mgr, err := rpc.NewManagerServerWith("127.0.0.1:0", chunk, manager.RoundRobin, rpc.ManagerConfig{
		Replication: replication,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	cl := &liveCluster{mgr: mgr}
	for i := 0; i < n; i++ {
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", mgr.Addr(), i, i, 256*chunk, chunk,
			benefactor.NewMem(), 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		cl.bens = append(cl.bens, bs)
		t.Cleanup(func() { bs.Close() })
	}
	return cl
}

// mgrOf digs the manager client out of a facade Client (tests only).
func mgrOf(t *testing.T, c *nvmalloc.Client) *rpc.ManagerClient {
	t.Helper()
	sc, ok := c.ChunkCache().Store().(*rpc.StoreClient)
	if !ok {
		t.Fatalf("client is not backed by the TCP store (%T)", c.ChunkCache().Store())
	}
	return sc.Store().Manager()
}

// TestConnectCheckpointRestoreE2E drives the full library cycle —
// ssdmalloc, writes, ssdcheckpoint with chunk linking, copy-on-write
// mutation, benefactor loss, restore, ssdfree — through the facade against
// live TCP daemons with replication 2, so the restore survives the death
// of one benefactor.
func TestConnectCheckpointRestoreE2E(t *testing.T) {
	const chunk = 4096
	cl := startCluster(t, 3, chunk, 2)

	c, err := nvmalloc.Connect(cl.mgr.Addr(), nvmalloc.ConnectConfig{
		CacheBytes:     16 * chunk,
		PageSize:       512,
		PageCacheBytes: 4 * chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// ssdmalloc + fill.
	const size = 6 * chunk
	r, err := c.Malloc(nil, size, nvmalloc.WithName("e2e.state"))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("generation-0###!"), size/16)
	if err := r.WriteAt(nil, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(nil); err != nil {
		t.Fatal(err)
	}

	// ssdcheckpoint: the variable's chunks are linked, not copied.
	wrote := c.ChunkCache().Stats().SSDWriteBytes
	dram := []byte("dram snapshot: iteration 17")
	info, err := c.Checkpoint(nil, "e2e.ckpt", dram, r)
	if err != nil {
		t.Fatal(err)
	}
	if info.LinkedChunks != size/chunk {
		t.Fatalf("linked %d chunks, want %d", info.LinkedChunks, size/chunk)
	}
	moved := c.ChunkCache().Stats().SSDWriteBytes - wrote
	if moved >= size {
		t.Fatalf("checkpoint moved %d B — the linked chunks were copied, not linked", moved)
	}

	// Mutate after the checkpoint; writeback must remap copy-on-write.
	if err := r.WriteAt(nil, 0, bytes.Repeat([]byte("generation-1###!"), chunk/16)); err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(nil); err != nil {
		t.Fatal(err)
	}

	// One benefactor dies. Replication 2 means every chunk still has a
	// live copy; reads must fail over transparently.
	cl.bens[0].Close()
	if err := mgrOf(t, c).MarkDead(0); err != nil {
		t.Fatal(err)
	}

	// Restart path: DRAM prefix + derived region, all from the snapshot.
	dramBack := make([]byte, len(dram))
	if err := c.ReadCheckpointDRAM(nil, "e2e.ckpt", dramBack); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dramBack, dram) {
		t.Fatalf("DRAM restore mismatch: %q", dramBack)
	}
	restored, err := c.RestoreRegion(nil, "e2e.ckpt", info.Regions[0], "e2e.state.restored")
	if err != nil {
		t.Fatal(err)
	}
	back := make([]byte, size)
	if err := restored.ReadAt(nil, 0, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatal("restored region does not match the checkpointed generation-0 state")
	}
	cur := make([]byte, 16)
	if err := r.ReadAt(nil, 0, cur); err != nil {
		t.Fatal(err)
	}
	if string(cur) != "generation-1###!" {
		t.Fatalf("live variable lost its post-checkpoint mutation: %q", cur)
	}

	// ssdfree.
	if err := restored.Free(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteCheckpoint(nil, "e2e.ckpt"); err != nil {
		t.Fatal(err)
	}
}

// TestConnectColdRestoreFailsOver restores a checkpoint through a second
// client, whose cache is cold, after one benefactor died. The checkpointing
// client would serve the chunks its variable still holds from its own
// cache; the second one reads every chunk of the region from the store,
// from the copies that survive on live benefactors, and must read it
// byte-exact.
func TestConnectColdRestoreFailsOver(t *testing.T) {
	const chunk = 4096
	cl := startCluster(t, 3, chunk, 2)
	cfg := nvmalloc.ConnectConfig{
		CacheBytes:     16 * chunk,
		PageSize:       512,
		PageCacheBytes: 4 * chunk,
	}
	c, err := nvmalloc.Connect(cl.mgr.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const size = 6 * chunk
	r, err := c.Malloc(nil, size, nvmalloc.WithName("cold.state"))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*7 + i/chunk)
	}
	if err := r.WriteAt(nil, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(nil); err != nil {
		t.Fatal(err)
	}
	info, err := c.Checkpoint(nil, "cold.ckpt", []byte("dram"), r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteAt(nil, 0, bytes.Repeat([]byte{0xEE}, chunk)); err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(nil); err != nil {
		t.Fatal(err)
	}

	cl.bens[0].Close()
	if err := mgrOf(t, c).MarkDead(0); err != nil {
		t.Fatal(err)
	}

	c2, err := nvmalloc.Connect(cl.mgr.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	restored, err := c2.RestoreRegion(nil, "cold.ckpt", info.Regions[0], "cold.restored")
	if err != nil {
		t.Fatal(err)
	}
	before := c2.ChunkCache().Stats().SSDReadBytes
	back := make([]byte, size)
	if err := restored.ReadAt(nil, 0, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatal("cold restore does not match the checkpointed state")
	}
	if got := c2.ChunkCache().Stats().SSDReadBytes - before; got < size {
		t.Fatalf("cold restore read %d B from the store, want >= %d (the whole region)", got, size)
	}
	if err := restored.Free(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteCheckpoint(nil, "cold.ckpt"); err != nil {
		t.Fatal(err)
	}
}

// TestConnectConcurrentRanks hammers one cluster from several rank
// goroutines at once — the TCP data path and the daemons must be race-free
// (this test earns its keep under -race). Each rank connects for itself: a
// Client's page cache is single-rank by contract (fusecache.PageCache), and
// the shared-Client version of this test raced in PageCache.Drop.
// TestConnectSharedChunkCache keeps the one-connection coverage.
func TestConnectConcurrentRanks(t *testing.T) {
	const chunk = 4096
	cl := startCluster(t, 3, chunk, 1)

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := nvmalloc.Connect(cl.mgr.Addr(), nvmalloc.ConnectConfig{
				CacheBytes: 8 * chunk, // small: forces eviction traffic
				PageSize:   512,
			})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			name := fmt.Sprintf("rank%d.var", w)
			r, err := c.Malloc(nil, 4*chunk, nvmalloc.WithName(name))
			if err != nil {
				errs <- err
				return
			}
			pat := bytes.Repeat([]byte{byte('a' + w)}, 4*chunk)
			for iter := 0; iter < 5; iter++ {
				if err := r.WriteAt(nil, 0, pat); err != nil {
					errs <- err
					return
				}
				got := make([]byte, 4*chunk)
				if err := r.ReadAt(nil, 0, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, pat) {
					errs <- fmt.Errorf("rank %d read back wrong data", w)
					return
				}
			}
			if err := r.Sync(nil); err != nil {
				errs <- err
				return
			}
			errs <- r.Free(nil)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConnectSharedChunkCache is the one-connection half of the above:
// several goroutines drive ONE Client's FUSE-layer chunk cache — the layer
// that is shared between ranks by contract — each on a variable of its own,
// through an undersized cache so their evictions, writebacks and flushes
// interleave on the shared store connection. Run with -race.
func TestConnectSharedChunkCache(t *testing.T) {
	const (
		chunk   = 4096
		workers = 4
		size    = 4 * chunk
	)
	cl := startCluster(t, 3, chunk, 1)
	c, err := nvmalloc.Connect(cl.mgr.Addr(), nvmalloc.ConnectConfig{
		CacheBytes: 8 * chunk, // half the working set: forces eviction traffic
		PageSize:   512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	regions := make([]*nvmalloc.Region, workers)
	for w := range regions {
		if regions[w], err = c.Malloc(nil, size, nvmalloc.WithName(fmt.Sprintf("shared%d.var", w))); err != nil {
			t.Fatal(err)
		}
	}
	cc := c.ChunkCache()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := regions[w].Name()
			got := make([]byte, size)
			for iter := 0; iter < 5; iter++ {
				pat := bytes.Repeat([]byte{byte('a' + w + iter)}, size)
				if err := cc.WriteRange(nil, name, 0, pat); err != nil {
					errs <- err
					return
				}
				if err := cc.ReadRange(nil, name, 0, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, pat) {
					errs <- fmt.Errorf("worker %d iteration %d read back wrong data", w, iter)
					return
				}
				if err := cc.Flush(nil, name); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// What reached the store is each worker's last pattern: a second
	// client's cold cache reads it from the benefactors.
	reader, err := nvmalloc.Connect(cl.mgr.Addr(), nvmalloc.ConnectConfig{ReadAheadChunks: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	got := make([]byte, size)
	for w, r := range regions {
		if err := reader.ChunkCache().ReadRange(nil, r.Name(), 0, got); err != nil {
			t.Fatal(err)
		}
		if want := bytes.Repeat([]byte{byte('a' + w + 4)}, size); !bytes.Equal(got, want) {
			t.Fatalf("worker %d: store holds %q…, want %q…", w, got[:4], want[:4])
		}
		if err := r.Free(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConnectRejectsNegativePageSize: a negative page size passes a bare
// divisibility check (262144 % -4096 == 0), and the first write through
// the page cache then panics sizing a page. Connect must refuse it.
func TestConnectRejectsNegativePageSize(t *testing.T) {
	const chunk = 4096
	cl := startCluster(t, 1, chunk, 1)
	c, err := nvmalloc.Connect(cl.mgr.Addr(), nvmalloc.ConnectConfig{PageSize: -chunk})
	if err == nil {
		defer c.Close()
		r, err := c.Malloc(nil, chunk, nvmalloc.WithName("neg"))
		if err == nil {
			err = r.WriteAt(nil, 0, []byte("x"))
		}
		t.Fatalf("Connect accepted page size %d (first write: %v)", -chunk, err)
	}
}

// TestConnectRejectsNegativeCacheSizes: a negative chunk or page cache size
// is an error, not a silent one-chunk or one-page cache. A positive chunk
// cache below one chunk is still clamped up to one.
func TestConnectRejectsNegativeCacheSizes(t *testing.T) {
	const chunk = 4096
	cl := startCluster(t, 1, chunk, 1)
	for _, cfg := range []nvmalloc.ConnectConfig{
		{CacheBytes: -chunk, PageSize: 512},
		{PageCacheBytes: -1, PageSize: 512},
	} {
		if c, err := nvmalloc.Connect(cl.mgr.Addr(), cfg); err == nil {
			c.Close()
			t.Errorf("Connect accepted %+v", cfg)
		}
	}
	c, err := nvmalloc.Connect(cl.mgr.Addr(), nvmalloc.ConnectConfig{CacheBytes: chunk / 2, PageSize: 512})
	if err != nil {
		t.Fatalf("Connect with half a chunk of cache: %v", err)
	}
	if got := c.ChunkCache().Config().CacheBytes; got != chunk {
		t.Errorf("chunk cache of %d bytes, want one chunk (%d)", got, chunk)
	}
	c.Close()
}
