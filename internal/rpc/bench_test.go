package rpc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
)

// Benchmarks for the real TCP data path: serial (the pre-pool behavior,
// one connection and one transfer in flight) vs parallel (pooled
// connections + bounded fan-out) vs cached. The paper's claim (§III-D,
// Tables III–IV) is that aggregate bandwidth scales with contributor
// count — visible here as parallel throughput growing with bens while
// serial stays flat.
//
// Loopback has essentially no latency, so the headline serial-vs-parallel
// benches emulate the SSD's access time in the benefactor backend
// (benchDeviceLatency per chunk op, in the ballpark of a 2012 SLC SSD
// random access). That is the latency striping actually hides in the
// paper's testbed; without it a loopback benchmark measures only gob CPU
// overhead and understates fan-out wildly (especially on small machines).

const (
	benchFileChunks    = 48
	benchDeviceLatency = 150 * time.Microsecond
)

var benchModes = []struct {
	name string
	opts Options
}{
	{"serial", Options{PoolSize: 1, Parallelism: 1}},
	{"parallel", Options{PoolSize: 4, Parallelism: 16}},
}

// slowBackend adds a fixed device service time to every chunk access.
type slowBackend struct {
	benefactor.Backend
	delay time.Duration
}

func (s slowBackend) Put(id proto.ChunkID, data []byte) error {
	time.Sleep(s.delay)
	return s.Backend.Put(id, data)
}

func (s slowBackend) Get(id proto.ChunkID) ([]byte, error) {
	time.Sleep(s.delay)
	return s.Backend.Get(id)
}

// benchStore spins up a manager plus bens benefactors whose backends have
// emulated device latency, and opens a client with the given options.
func benchStore(b *testing.B, bens int, opts Options) *Store {
	b.Helper()
	ms, err := NewManagerServer("127.0.0.1:0", testChunk, manager.RoundRobin)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ms.Close() })
	for i := 0; i < bens; i++ {
		backend := slowBackend{benefactor.NewMem(), benchDeviceLatency}
		bs, err := NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 2*benchFileChunks*testChunk, testChunk, backend, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { bs.Close() })
	}
	st, err := OpenWith(ms.Addr(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

func BenchmarkRPCStoreWriteAt(b *testing.B) {
	for _, bens := range []int{1, 4, 8} {
		for _, m := range benchModes {
			b.Run(fmt.Sprintf("bens=%d/%s", bens, m.name), func(b *testing.B) {
				st := benchStore(b, bens, m.opts)
				size := int64(benchFileChunks * testChunk)
				if err := st.Create("bench", size); err != nil {
					b.Fatal(err)
				}
				data := make([]byte, size)
				for i := range data {
					data[i] = byte(i)
				}
				b.SetBytes(size)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := st.WriteAt("bench", 0, data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkRPCStoreReadAt(b *testing.B) {
	for _, bens := range []int{1, 4, 8} {
		for _, m := range benchModes {
			b.Run(fmt.Sprintf("bens=%d/%s", bens, m.name), func(b *testing.B) {
				st := benchStore(b, bens, m.opts)
				size := int64(benchFileChunks * testChunk)
				if err := st.Put("bench", make([]byte, size)); err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, size)
				b.SetBytes(size)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := st.ReadAt("bench", 0, buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRPCObsOverhead isolates the cost of the observability layer:
// the same striped read/write workload with default instrumentation
// (counters + histograms + ring events) vs obs.Disabled() (every handle
// nil, every call a no-op). The servers run the continuous monitor in both
// modes — periodic snapshots plus rule evaluation off the hot path — so
// the comparison includes sampling, not just inline counters. Run with
// zero emulated device latency on loopback — the worst case for relative
// overhead, since there is no SSD service time to hide behind. The two
// modes should be within noise (<5%); a regression here means someone put
// work on the hot path instead of behind a nil-safe handle.
func BenchmarkRPCObsOverhead(b *testing.B) {
	monitor := obs.MonitorConfig{
		SampleInterval: 100 * time.Millisecond,
		Rules:          obs.DefaultRules(obs.RuleDefaults{}),
	}
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"instrumented", Options{}},
		{"disabled", Options{Obs: obs.Disabled()}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ms, err := NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin,
				ManagerConfig{Monitor: monitor})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { ms.Close() })
			for i := 0; i < 4; i++ {
				bs, err := NewBenefactorServerWith("127.0.0.1:0", ms.Addr(), i, i, 2*benchFileChunks*testChunk, testChunk,
					benefactor.NewMem(), 0, BenefactorConfig{Monitor: monitor})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { bs.Close() })
			}
			st, err := OpenWith(ms.Addr(), mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { st.Close() })

			size := int64(benchFileChunks * testChunk)
			if err := st.Put("bench", make([]byte, size)); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, size)
			b.SetBytes(2 * size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.WriteAt("bench", 0, buf); err != nil {
					b.Fatal(err)
				}
				if err := st.ReadAt("bench", 0, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRPCStoreCachedReadAt measures the cache serving a working set
// that fits: after the first pass everything is resident and reads cost no
// network round trips at all.
func BenchmarkRPCStoreCachedReadAt(b *testing.B) {
	st := benchStore(b, 4, Options{})
	cache, err := NewCachedStore(st, CacheConfig{
		CacheBytes: 2 * benchFileChunks * testChunk,
		PageSize:   256,
	})
	if err != nil {
		b.Fatal(err)
	}
	size := int64(benchFileChunks * testChunk)
	if err := cache.Put("bench", make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cache.ReadAt("bench", 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCStoreCachedSparseFlush measures the Table VII write
// optimization end-to-end: dirty one page per chunk, flush, compare
// against whole-chunk writeback via the WriteFullChunks baseline.
func BenchmarkRPCStoreCachedSparseFlush(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "dirty-pages"
		if full {
			name = "whole-chunks"
		}
		b.Run(name, func(b *testing.B) {
			st := benchStore(b, 4, Options{})
			cache, err := NewCachedStore(st, CacheConfig{
				CacheBytes:      2 * benchFileChunks * testChunk,
				PageSize:        256,
				WriteFullChunks: full,
			})
			if err != nil {
				b.Fatal(err)
			}
			size := int64(benchFileChunks * testChunk)
			if err := cache.Put("bench", make([]byte, size)); err != nil {
				b.Fatal(err)
			}
			if err := cache.Flush("bench"); err != nil {
				b.Fatal(err)
			}
			page := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < benchFileChunks; c++ {
					if err := cache.WriteAt("bench", int64(c)*testChunk, page); err != nil {
						b.Fatal(err)
					}
				}
				if err := cache.Flush("bench"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(st.Stats().SSDWriteBytes)/float64(b.N), "ssd-B/op")
		})
	}
}

// BenchmarkCheckpointFlushFanout is the local row of the ckpt-cycle ledger
// (EXPERIMENTS.md): a checkpoint's flush of 13 sparsely dirtied chunks that
// are all shared with the previous checkpoint, so every writeback is a
// copy-on-write remap (manager-driven copy onto 2 replicas) plus a
// dirty-page put, on 1 ms devices. Device work is ~4 ms per chunk spread
// over 3 benefactors; what the flush costs beyond that is lost overlap.
func BenchmarkCheckpointFlushFanout(b *testing.B) {
	const dirtyChunks = 13
	ms, err := NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin, ManagerConfig{Replication: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ms.Close() })
	for i := 0; i < 3; i++ {
		backend := benefactor.Delay(benefactor.NewMem(), time.Millisecond)
		bs, err := NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 64*dirtyChunks*testChunk, testChunk, backend, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { bs.Close() })
	}
	st, err := Open(ms.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	cache, err := NewCachedStore(st, CacheConfig{CacheBytes: 2 * dirtyChunks * testChunk, PageSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	if err := cache.Put("var", make([]byte, dirtyChunks*testChunk)); err != nil {
		b.Fatal(err)
	}
	if err := cache.Flush("var"); err != nil {
		b.Fatal(err)
	}
	cache.ArmCOW("var")
	page := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ckpt := fmt.Sprintf("ckpt%d", i)
		if err := st.Create(ckpt, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Link(ckpt, []string{"var"}); err != nil {
			b.Fatal(err)
		}
		page[0] = byte(i)
		for c := 0; c < dirtyChunks; c++ {
			if err := cache.WriteAt("var", int64(c)*testChunk, page); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := cache.Flush("var"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.Delete(ckpt); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/flush")
	b.ReportMetric(float64(st.Stats().InFlightPeak), "inflight-peak")
	if got := cache.Stats().Remaps; got != int64(dirtyChunks*b.N) {
		b.Fatalf("%d remaps over %d flushes, want %d per flush", got, b.N, dirtyChunks)
	}
}

// BenchmarkRestoreReadBack is the local row of the ckpt-cycle restore
// ledger (EXPERIMENTS.md): a cold sequential read-back of a 128-chunk file
// in 1 MiB ops through the cache, on three 1 ms devices — what a restarted
// job does with a restored region. Serial device time is 128 ms, spread
// over 3 benefactors ≈ 43 ms; what a sweep costs beyond that is lost
// overlap.
func BenchmarkRestoreReadBack(b *testing.B) {
	const (
		chunk  = 256 << 10
		chunks = 128
		op     = 1 << 20
	)
	ms, err := NewManagerServerWith("127.0.0.1:0", chunk, manager.RoundRobin, ManagerConfig{Replication: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ms.Close() })
	for i := 0; i < 3; i++ {
		backend := benefactor.Delay(benefactor.NewMem(), time.Millisecond)
		bs, err := NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 4*chunks*chunk, chunk, backend, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { bs.Close() })
	}
	payload := make([]byte, chunks*chunk)
	for i := range payload {
		payload[i] = byte(i/chunk + 1)
	}
	// The file is written through a client of its own, so that the reading
	// store's in-flight peak is the sweep's.
	wst, err := Open(ms.Addr())
	if err != nil {
		b.Fatal(err)
	}
	err = wst.Put("restart", payload)
	wst.Close()
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(ms.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	cache, err := NewCachedStore(st, CacheConfig{CacheBytes: 2 * chunks * chunk, ReadAheadChunks: 2})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache.Drop("restart")
		b.StartTimer()
		for off := 0; off < len(payload); off += op {
			if err := cache.ReadAt("restart", int64(off), buf); err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(buf, payload[off:off+op]) {
				b.Fatalf("sweep %d: bytes at %d differ", i, off)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/sweep")
	b.ReportMetric(float64(st.Stats().InFlightPeak), "inflight-peak")
	b.ReportMetric(float64(cache.Stats().Misses)/float64(b.N), "misses/sweep")
	b.ReportMetric(float64(cache.Stats().PrefetchWasted)/chunk/float64(b.N), "wasted-chunks/sweep")
}
