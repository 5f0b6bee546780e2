package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/shardmap"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/store"
)

// Probes are tight loops on one layer's public functions, for the hops a
// boundary shim cannot isolate. Each runs a fixed iteration count and
// reports the mean; together they take about two seconds.

// perOp times n calls of fn and returns the mean in ns.
func perOp(n int, fn func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t)) / float64(n)
}

// zeroStore is a store.Client whose chunks are all zero and whose writes
// vanish: enough for the cache probes, which only ever hit.
type zeroStore struct{}

func (zeroStore) Node() int        { return 0 }
func (zeroStore) ChunkSize() int64 { return chunkSize }
func (zeroStore) Create(store.Ctx, string, int64) (proto.FileInfo, error) {
	return proto.FileInfo{}, nil
}
func (zeroStore) Lookup(store.Ctx, string) (proto.FileInfo, error) {
	return proto.FileInfo{}, proto.ErrNoSuchFile
}
func (zeroStore) Delete(store.Ctx, string) error { return nil }
func (zeroStore) Link(store.Ctx, string, []string) (proto.FileInfo, error) {
	return proto.FileInfo{}, nil
}
func (zeroStore) Derive(store.Ctx, string, string, int, int, int64) (proto.FileInfo, error) {
	return proto.FileInfo{}, nil
}
func (zeroStore) Remap(store.Ctx, string, int) ([]proto.ChunkRef, error) { return nil, nil }
func (zeroStore) SetTTL(store.Ctx, string, time.Duration) error          { return nil }
func (zeroStore) GetChunk(store.Ctx, []proto.ChunkRef) ([]byte, error) {
	return make([]byte, chunkSize), nil
}
func (zeroStore) PutChunk(store.Ctx, []proto.ChunkRef, []byte) error            { return nil }
func (zeroStore) PutPages(store.Ctx, []proto.ChunkRef, []int64, [][]byte) error { return nil }
func (zeroStore) Status(store.Ctx) ([]proto.BenefactorInfo, error)              { return nil, nil }

// probeCaches times the page-cache hit and the chunk-cache hit (from one
// goroutine, and from two sharing one cache — every ReadRange takes the
// cache's one env lock).
func probeCaches(vals map[string]float64) {
	const file, chunks, n = "probe", 16, 200000
	fi := proto.FileInfo{Name: file, Size: chunks * chunkSize}
	for i := 0; i < chunks; i++ {
		fi.Chunks = append(fi.Chunks, proto.ChunkRef{ID: proto.ChunkID(i + 1)})
	}
	cc := fusecache.NewChunkCache(store.NewGoEnv(), zeroStore{}, fusecache.Config{
		ChunkSize: chunkSize, PageSize: pageSize, CacheBytes: 2 * chunks * chunkSize,
	})
	cc.RegisterMeta(nil, fi)
	pages := int(fi.Size / pageSize)
	read := func(seed uint64) func(int) {
		r, buf := newRng(seed, 901), make([]byte, pageSize)
		return func(int) {
			if err := cc.ReadRange(nil, file, int64(r.intn(pages))*pageSize, buf); err != nil {
				panic(err)
			}
		}
	}
	touch := read(0)
	for i := 0; i < 4*pages; i++ { // make every chunk resident (the cache holds them all)
		touch(i)
	}
	vals["probe.chunkcache_hit_ns_g1"] = perOp(n, read(1))
	var wg sync.WaitGroup
	t := time.Now()
	for g := uint64(0); g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perOp(n, read(2+g))
		}()
	}
	wg.Wait()
	vals["probe.chunkcache_hit_ns_g2"] = float64(time.Since(t)) / n

	pc := fusecache.NewPageCache(cc, fi.Size)
	r, buf := newRng(4, 901), make([]byte, pageSize)
	readPage := func(int) {
		if err := pc.Read(nil, file, int64(r.intn(pages))*pageSize, buf); err != nil {
			panic(err)
		}
	}
	for p := 0; p < pages; p++ { // fault every page in
		if err := pc.Read(nil, file, int64(p)*pageSize, buf); err != nil {
			panic(err)
		}
	}
	vals["probe.pagecache_hit_ns"] = perOp(n, readPage)
}

// twoPart reads a, then b: a frame header and its payload, as the wire
// would deliver them, with no staging copy and no allocation.
type twoPart struct {
	a, b []byte
}

func (t *twoPart) Read(p []byte) (int, error) {
	if len(t.a) == 0 {
		t.a, t.b = t.b, nil
		if len(t.a) == 0 {
			return 0, io.EOF
		}
	}
	n := copy(p, t.a)
	t.a = t.a[n:]
	return n, nil
}

// probeProto times the NVM1 frame codec with a 256 KiB payload and the
// arena on (and counts its allocations, which must stay 0), the arena
// alone, and a gob metadata round trip on a persistent stream.
func probeProto(vals map[string]float64) {
	const n = 20000
	arena := proto.NewArena(chunkSize)
	payload := make([]byte, chunkSize)
	var enc, dec proto.Frame
	var hdr []byte
	var wire twoPart
	frame := func(i int) {
		// Field by field: a whole-struct assignment would drop the frame's
		// recycled meta scratch and cost an allocation per frame.
		enc.Op, enc.ID, enc.PayloadLen = proto.FramePut, proto.ChunkID(i), len(payload)
		hdr = enc.AppendTo(hdr[:0])
		wire.a, wire.b = hdr, payload
		got, err := proto.ReadFrame(&wire, &dec, arena, 2*chunkSize)
		if err != nil || len(got) != len(payload) {
			panic(fmt.Sprint("frame round trip: ", err))
		}
		arena.Put(got)
	}
	perOp(100, frame) // warm the arena and the frames' scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	vals["probe.nvm1_frame_roundtrip_ns"] = perOp(n, frame)
	runtime.ReadMemStats(&after)
	vals["probe.nvm1_frame_allocs"] = float64((after.Mallocs - before.Mallocs) / n)

	vals["probe.arena_getput_ns"] = perOp(50*n, func(int) { arena.Put(arena.Get(chunkSize)) })

	// A Create's request and response: a 3-chunk file with 2 copies of
	// each chunk, on one long-lived encoder/decoder pair as on a manager
	// connection (type descriptors are sent once).
	var buf bytes.Buffer
	genc, gdec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	resp := proto.ManagerResp{ShardEpoch: 7, ShardCount: nShards, ShardPeers: []string{"127.0.0.1:7070", "127.0.0.1:7071"}}
	resp.File = proto.FileInfo{Name: "m0123456789ab", Size: metaFileBytes}
	for i := 0; i < 3; i++ {
		a, b := proto.ChunkRef{Benefactor: i % nBens, ID: proto.ChunkID(i + 1)}, proto.ChunkRef{Benefactor: (i + 1) % nBens, ID: proto.ChunkID(i + 1)}
		resp.File.Chunks = append(resp.File.Chunks, a)
		resp.File.Replicas = append(resp.File.Replicas, []proto.ChunkRef{a, b})
	}
	req := proto.ManagerReq{Op: proto.OpCreate, Name: resp.File.Name, Size: metaFileBytes, MapEpoch: 7}
	vals["probe.gob_meta_roundtrip_ns"] = perOp(n, func(int) {
		var rq proto.ManagerReq
		var rs proto.ManagerResp
		if err := genc.Encode(&req); err != nil {
			panic(err)
		}
		if err := gdec.Decode(&rq); err != nil {
			panic(err)
		}
		if err := genc.Encode(&resp); err != nil {
			panic(err)
		}
		if err := gdec.Decode(&rs); err != nil {
			panic(err)
		}
	})
}

// probeManager times manager.Manager's state transitions directly (3
// benefactors, replication 2 — the geometry's metadata, without the TCP
// server around it) and shardmap.ShardFor.
func probeManager(vals map[string]float64) {
	const n = 50000
	m := manager.New(chunkSize, manager.RoundRobin)
	m.Replication = replication
	for i := 0; i < nBens; i++ {
		m.Register(proto.BenefactorInfo{ID: i, Node: i, Capacity: 1 << 40}, "", 0)
	}
	r := newRng(5, 902)
	names := make([]string, n)
	for i := range names {
		names[i] = r.name("m")
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	vals["probe.manager_create_ns"] = perOp(n, func(i int) {
		_, err := m.Create(names[i], metaFileBytes)
		must(err)
	})
	vals["probe.manager_lookup_ns"] = perOp(n, func(i int) {
		_, err := m.Lookup(names[i])
		must(err)
	})
	// Link appends one 3-chunk file to a growing destination, as a
	// checkpoint links a variable; the destination is recreated every 64
	// links so its length stays bounded.
	dst := ""
	vals["probe.manager_link_ns"] = perOp(n, func(i int) {
		if i%64 == 0 {
			dst = fmt.Sprintf("d%d", i)
			_, err := m.Create(dst, 0)
			must(err)
		}
		_, err := m.Link(dst, names[i:i+1])
		must(err)
	})
	vals["probe.manager_delete_ns"] = perOp(n, func(i int) {
		_, err := m.Delete(names[i])
		must(err)
	})
	var sink int
	vals["probe.shardmap_shardfor_ns"] = perOp(10*n, func(i int) { sink += shardmap.ShardFor(names[i%n], nShards) })
	_ = sink
}

// probeSimtime counts the simulator engine's events per second: two procs
// handing a token back and forth, each sleeping 1 µs of virtual time per
// turn — a timer event and a channel wake per hop.
func probeSimtime(vals map[string]float64) {
	const hops = 100000
	e := simtime.NewEngine()
	ping, pong := simtime.NewChan[int](e, "ping"), simtime.NewChan[int](e, "pong")
	e.Go("a", func(p *simtime.Proc) {
		for i := 0; i < hops; i++ {
			p.Sleep(time.Microsecond)
			ping.Send(i)
			pong.Recv(p)
		}
	})
	e.Go("b", func(p *simtime.Proc) {
		for i := 0; i < hops; i++ {
			ping.Recv(p)
			p.Sleep(time.Microsecond)
			pong.Send(i)
		}
	})
	t := time.Now()
	e.Run()
	// Per hop: two sleeps and two channel wakes.
	vals["probe.simtime_events_per_s"] = 4 * hops / time.Since(t).Seconds()
}

func probeMetrics(vals map[string]float64) {
	probeCaches(vals)
	probeProto(vals)
	probeManager(vals)
	probeSimtime(vals)
}
