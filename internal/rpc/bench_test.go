package rpc

import (
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
// connections + bounded fan-out); the cached ones are in
// cachedclient_test.go. The paper's claim (§III-D, Tables III–IV) is that
// aggregate bandwidth scales with contributor count — visible here as
// parallel throughput growing with bens while serial stays flat.
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
