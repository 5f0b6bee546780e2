// Real TCP store demo: spins up a manager and three benefactors on
// loopback (the same daemons cmd/nvmstore runs across machines), stores a
// striped file through the parallel pooled data path, reruns a sparse
// update through the client chunk cache to show dirty-page-only writeback
// (paper Table VII), takes a zero-copy linked checkpoint, and shows the
// copy-on-write isolation — all with real sockets and real chunk files.
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

	// The client fans chunk transfers out over a small connection pool per
	// benefactor, so the three SSDs above are kept busy simultaneously.
	st, err := rpc.OpenWith(mgr.Addr(), rpc.Options{PoolSize: 4, Parallelism: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// Store a striped variable.
	payload := bytes.Repeat([]byte("out-of-core "), 40000) // ~480 KB
	if err := st.Put("nvmvar", payload); err != nil {
		log.Fatal(err)
	}
	fi, _ := st.Stat("nvmvar")
	ds := st.Stats()
	fmt.Printf("\nnvmvar: %d bytes striped into %d chunks across 3 benefactors\n", fi.Size, len(fi.Chunks))
	fmt.Printf("data path: %d chunk puts, %d B to SSDs, %d transfers in flight at peak\n",
		ds.ChunkPuts, ds.SSDWriteBytes, ds.InFlightPeak)

	// Sparse update through the client chunk cache: dirty 4 KB pages are
	// tracked per chunk and only they travel on flush — the paper's write
	// optimization (Table VII). A second, uncached client would ship whole
	// chunks for the same update.
	cst, err := rpc.OpenWith(mgr.Addr(), rpc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	c, err := nvmalloc.ConnectStore(cst, nvmalloc.ConnectConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	v, err := c.Attach(nil, "nvmvar")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < len(fi.Chunks); i++ {
		if err := v.WriteAt(nil, int64(i)*chunk, []byte("sparse-touch")); err != nil {
			log.Fatal(err)
		}
	}
	if err := v.Sync(nil); err != nil {
		log.Fatal(err)
	}
	cs, dcs := c.ChunkCache().Stats(), cst.Stats()
	fmt.Printf("\ncached sparse update: hits=%d misses=%d readAhead=%dB\n", cs.Hits, cs.Misses, cs.PrefetchBytes)
	fmt.Printf("dirty-page writeback shipped %d B to SSDs for %d B of whole chunks touched (%.1f%%)\n",
		dcs.SSDWriteBytes, int64(len(fi.Chunks))*chunk,
		100*float64(dcs.SSDWriteBytes)/float64(int64(len(fi.Chunks))*chunk))

	// Zero-copy checkpoint: link the variable's chunks.
	if err := st.Create("ckpt", 0); err != nil {
		log.Fatal(err)
	}
	if _, err := st.Manager().Link("ckpt", []string{"nvmvar"}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncheckpoint links the variable's chunks — nothing copied")

	// Copy-on-write: remap chunk 0 before modifying it.
	if _, err := st.Manager().Remap("nvmvar", 0); err != nil {
		log.Fatal(err)
	}
	if _, err := st.Stat("nvmvar"); err != nil { // refresh the chunk map
		log.Fatal(err)
	}
	if err := st.WriteAt("nvmvar", 0, []byte("MUTATED!")); err != nil {
		log.Fatal(err)
	}
	ck, err := st.Get("ckpt")
	if err != nil {
		log.Fatal(err)
	}
	nv, _ := st.Get("nvmvar")
	fmt.Printf("after write: variable starts %q, checkpoint still starts %q\n", nv[:8], ck[:8])

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

	st, err := rpc.OpenWith(mgr.Addr(), rpc.Options{
		CallTimeout: 2 * time.Second,
		Retry:       rpc.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	payload := bytes.Repeat([]byte("replicated! "), 40000) // ~480 KB
	if err := st.Put("nvmvar", payload); err != nil {
		log.Fatal(err)
	}
	fmt.Println("stored nvmvar with every chunk on 2 of 3 benefactors")

	// Benefactor 0 crashes: its listener and live connections die.
	bens[0].Close()
	if err := st.Manager().MarkDead(0); err != nil {
		log.Fatal(err)
	}
	got, err := st.Get("nvmvar")
	if err != nil {
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
	defer st.Close()
	// Root the write in a span the way `nvmctl put` does: the manager and
	// benefactors record their halves under the same trace.
	data := bytes.Repeat([]byte("observe "), 32768) // 256 KB
	root := st.Obs().StartSpan("", "", "client.put")
	root.SetVar("traced-var")
	root.AddBytes(int64(len(data)))
	ctx := store.WithSpan(nil, store.SpanInfo{Trace: root.Trace(), Parent: root.ID(), Var: "traced-var"})
	if err := st.PutCtx(ctx, "traced-var", data); err != nil {
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

	// Follow the Put's trace across the cluster like `nvmctl trace`: the
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
