// Real TCP store demo: spins up a manager and three benefactors on
// loopback (the same daemons cmd/nvmstore runs across machines), stores a
// striped variable through the client chunk cache and pooled connections,
// reruns a sparse update to show dirty-page-only writeback (paper Table
// VII), takes a zero-copy linked checkpoint, and shows the copy-on-write
// isolation — all with real sockets and real chunk files.
// A final act runs a replicated store, kills a benefactor mid-life, reads
// through replica failover, and repairs back to full replica count.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"nvmalloc"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/store"
)

func main() {
	const chunk = 64 << 10

	mgr, err := rpc.NewManagerServer("127.0.0.1:0", chunk, manager.RoundRobin)
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close()
	fmt.Println("manager listening on", mgr.Addr())

	tmp, err := os.MkdirTemp("", "nvmalloc-realstore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	for i := 0; i < 3; i++ {
		backend, err := rpc.NewFileBackend(filepath.Join(tmp, fmt.Sprintf("ben%d", i)))
		if err != nil {
			log.Fatal(err)
		}
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", mgr.Addr(), i, i, 256*chunk, chunk, backend, time.Second)
		if err != nil {
			log.Fatal(err)
		}
		defer bs.Close()
		fmt.Printf("benefactor %d serving %s on %s\n", i, filepath.Join(tmp, fmt.Sprintf("ben%d", i)), bs.Addr())
	}

	// The client's chunk cache keeps several chunk transfers in flight over
	// a small connection pool per benefactor, so the three SSDs above are
	// kept busy simultaneously.
	st, err := rpc.OpenWith(mgr.Addr(), rpc.Options{PoolSize: 4})
	if err != nil {
		log.Fatal(err)
	}
	c, err := nvmalloc.ConnectStore(st, nvmalloc.ConnectConfig{})
	if err != nil {
		st.Close()
		log.Fatal(err)
	}
	defer c.Close()

	// Store a striped variable.
	payload := bytes.Repeat([]byte("out-of-core "), 40000) // ~480 KB
	v, err := c.Malloc(nil, int64(len(payload)), nvmalloc.WithName("nvmvar"))
	if err != nil {
		log.Fatal(err)
	}
	if err := v.WriteAt(nil, 0, payload); err != nil {
		log.Fatal(err)
	}
	if err := v.Sync(nil); err != nil {
		log.Fatal(err)
	}
	fi, _ := st.Stat("nvmvar")
	ds := st.Stats()
	fmt.Printf("\nnvmvar: %d bytes striped into %d chunks across 3 benefactors\n", fi.Size, len(fi.Chunks))
	fmt.Printf("data path: %d chunk puts, %d B to SSDs, %d transfers in flight at peak\n",
		ds.ChunkPuts, ds.SSDWriteBytes, ds.InFlightPeak)

	// Sparse update: dirty 4 KB pages are tracked per chunk and only they
	// travel on sync — the paper's write optimization (Table VII).
	for i := 0; i < len(fi.Chunks); i++ {
		if err := v.WriteAt(nil, int64(i)*chunk, []byte("sparse-touch")); err != nil {
			log.Fatal(err)
		}
	}
	if err := v.Sync(nil); err != nil {
		log.Fatal(err)
	}
	cs, shipped := c.ChunkCache().Stats(), st.Stats().SSDWriteBytes-ds.SSDWriteBytes
	fmt.Printf("\nsparse update: cache hits=%d misses=%d readAhead=%dB\n", cs.Hits, cs.Misses, cs.PrefetchBytes)
	fmt.Printf("dirty-page writeback shipped %d B to SSDs for %d B of whole chunks touched (%.1f%%)\n",
		shipped, int64(len(fi.Chunks))*chunk, 100*float64(shipped)/float64(int64(len(fi.Chunks))*chunk))

	// Zero-copy checkpoint: link the variable's chunks.
	info, err := c.Checkpoint(nil, "ckpt", nil, v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncheckpoint links the variable's %d chunks — nothing copied\n", info.LinkedChunks)

	// Copy-on-write: the write's chunk is remapped on writeback, so the
	// checkpoint keeps the original bytes.
	if err := v.WriteAt(nil, 0, []byte("MUTATED!")); err != nil {
		log.Fatal(err)
	}
	if err := v.Sync(nil); err != nil {
		log.Fatal(err)
	}
	ck, err := c.Attach(nil, "ckpt")
	if err != nil {
		log.Fatal(err)
	}
	nv, ckHead := make([]byte, 8), make([]byte, 8)
	if err := v.ReadAt(nil, 0, nv); err != nil {
		log.Fatal(err)
	}
	if err := ck.ReadAt(nil, int64(info.Regions[0].ChunkStart)*chunk, ckHead); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after write: variable starts %q, checkpoint still starts %q\n", nv, ckHead)

	time.Sleep(1200 * time.Millisecond) // let a heartbeat report write volumes
	bens, _ := st.Manager().Status()
	for _, b := range bens {
		fmt.Printf("benefactor %d: %d/%d bytes used, %d bytes written\n", b.ID, b.Used, b.Capacity, b.WriteVolume)
	}

	failoverDemo(tmp)
	observabilityDemo(tmp)
}

// failoverDemo runs the fault-tolerance path end to end on a replicated
// store: a benefactor dies, reads fail over to the surviving copies, and a
// repair pass re-replicates onto the survivors.
func failoverDemo(tmp string) {
	const chunk = 64 << 10
	fmt.Println("\n--- failover & repair (replication=2) ---")

	mgr, err := rpc.NewManagerServerWith("127.0.0.1:0", chunk, manager.RoundRobin, rpc.ManagerConfig{
		Replication:      2,
		HeartbeatTimeout: time.Second,
		SweepInterval:    250 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close()

	var bens []*rpc.BenefactorServer
	for i := 0; i < 3; i++ {
		backend, err := rpc.NewFileBackend(filepath.Join(tmp, fmt.Sprintf("rep%d", i)))
		if err != nil {
			log.Fatal(err)
		}
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", mgr.Addr(), i, i, 256*chunk, chunk, backend, 200*time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		defer bs.Close()
		bens = append(bens, bs)
	}

	w, err := nvmalloc.Connect(mgr.Addr(), nvmalloc.ConnectConfig{})
	if err != nil {
		log.Fatal(err)
	}
	payload := bytes.Repeat([]byte("replicated! "), 40000) // ~480 KB
	v, err := w.Malloc(nil, int64(len(payload)), nvmalloc.WithName("nvmvar"))
	if err != nil {
		log.Fatal(err)
	}
	if err := v.WriteAt(nil, 0, payload); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil { // flushes every dirty page
		log.Fatal(err)
	}
	fmt.Println("stored nvmvar with every chunk on 2 of 3 benefactors")

	// A second client, whose cache is cold, reads the variable back.
	st, err := rpc.OpenWith(mgr.Addr(), rpc.Options{
		CallTimeout: 2 * time.Second,
		Retry:       rpc.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	c, err := nvmalloc.ConnectStore(st, nvmalloc.ConnectConfig{})
	if err != nil {
		st.Close()
		log.Fatal(err)
	}
	defer c.Close()

	// Benefactor 0 crashes: its listener and live connections die.
	bens[0].Close()
	if err := st.Manager().MarkDead(0); err != nil {
		log.Fatal(err)
	}
	r, err := c.Attach(nil, "nvmvar")
	if err != nil {
		log.Fatal(err)
	}
	got := make([]byte, r.Size())
	if err := r.ReadAt(nil, 0, got); err != nil {
		log.Fatal(err)
	}
	s := st.Stats()
	fmt.Printf("read after crash: %d bytes intact, %d chunk reads failed over, %d retries\n",
		len(got), s.Failovers, s.Retries)

	under, _ := st.Manager().UnderReplicated()
	fmt.Printf("under-replicated chunks: %d\n", under)
	res, err := st.Manager().Repair()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repair: %d copies restored, %d failed, backlog %d, lost %d\n",
		res.Repaired, res.Failed, res.UnderReplicated, len(res.Lost))
	if !bytes.Equal(got, payload) {
		log.Fatal("payload corrupted")
	}
	fmt.Println("store back at full replica count on the survivors")
}

// observabilityDemo runs daemons with their HTTP debug endpoints enabled
// and plays operator: scrape /metrics from every node, then follow one
// traced write from the client through the manager to the benefactors —
// what `nvmctl top` and `nvmctl trace` do against a live cluster.
func observabilityDemo(tmp string) {
	const chunk = 64 << 10
	fmt.Println("\n--- observability: metrics scrape & trace ---")

	mgr, err := rpc.NewManagerServerWith("127.0.0.1:0", chunk, manager.RoundRobin, rpc.ManagerConfig{
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close()

	var debugAddrs []string
	for i := 0; i < 2; i++ {
		backend, err := rpc.NewFileBackend(filepath.Join(tmp, fmt.Sprintf("obs%d", i)))
		if err != nil {
			log.Fatal(err)
		}
		bs, err := rpc.NewBenefactorServerWith("127.0.0.1:0", mgr.Addr(), i, i, 256*chunk, chunk,
			backend, 200*time.Millisecond, rpc.BenefactorConfig{DebugAddr: "127.0.0.1:0"})
		if err != nil {
			log.Fatal(err)
		}
		defer bs.Close()
		debugAddrs = append(debugAddrs, bs.DebugAddr())
	}

	st, err := rpc.OpenWith(mgr.Addr(), rpc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	c, err := nvmalloc.ConnectStore(st, nvmalloc.ConnectConfig{})
	if err != nil {
		st.Close()
		log.Fatal(err)
	}
	defer c.Close()
	// Root the write in a span the way `nvmctl put` does: the cache, the
	// manager and the benefactors record their halves under the same trace.
	data := bytes.Repeat([]byte("observe "), 32768) // 256 KB
	root := st.Obs().StartSpan("", "", "client.put")
	root.SetVar("traced-var")
	root.AddBytes(int64(len(data)))
	ctx := store.WithSpan(nil, store.SpanInfo{Trace: root.Trace(), Parent: root.ID(), Var: "traced-var"})
	v, err := c.Malloc(ctx, int64(len(data)), nvmalloc.WithName("traced-var"))
	if err != nil {
		log.Fatal(err)
	}
	if err := v.WriteAt(ctx, 0, data); err != nil {
		log.Fatal(err)
	}
	if err := v.Sync(ctx); err != nil {
		log.Fatal(err)
	}
	root.End()

	// Scrape every node the way `nvmctl top` does.
	for _, addr := range append([]string{mgr.DebugAddr()}, debugAddrs...) {
		snap, err := obs.FetchMetrics(addr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s @ %s:", snap.Node, addr)
		for _, name := range snap.MetricNames() {
			if h, ok := snap.Histograms[name]; ok && h.Count > 0 {
				fmt.Printf(" %s{n=%d p99=%v}", name, h.Count, time.Duration(h.P99Nanos).Round(time.Microsecond))
			}
		}
		fmt.Println()
	}

	// Follow the put's trace across the cluster like `nvmctl trace`: the
	// client's own spans, then each daemon's.
	fmt.Printf("trace %s:\n", root.Trace())
	spans := st.Obs().Spans.ByTrace(root.Trace())
	for _, addr := range append([]string{mgr.DebugAddr()}, debugAddrs...) {
		got, err := obs.FetchSpans(addr, root.Trace(), false, 0)
		if err != nil {
			log.Fatal(err)
		}
		spans = append(spans, got...)
	}
	for _, sp := range spans {
		fmt.Printf("  %-18s %-13s %10v %7dB\n", sp.Name, sp.Node, time.Duration(sp.DurNanos).Round(time.Microsecond), sp.Bytes)
	}
}
