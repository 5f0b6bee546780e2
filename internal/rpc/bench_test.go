package rpc

import (
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/obs"
)

// benchFileChunks is BenchmarkRPCObsOverhead's file size, in chunks.
const benchFileChunks = 48

// BenchmarkRPCObsOverhead isolates the cost of the observability layer:
// the same striped write+read workload through a chunk cache, with default
// instrumentation (counters + histograms + ring events) vs obs.Disabled()
// (every handle nil, every call a no-op). The servers run the continuous monitor in both
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
			if err := putFile(st, "bench", make([]byte, size)); err != nil {
				b.Fatal(err)
			}
			cc := newFileCache(st)
			buf := make([]byte, size)
			b.SetBytes(2 * size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Every chunk crosses the wire twice: the write ships each
				// one whole, and the read starts from an empty cache.
				if err := writeThrough(nil, cc, "bench", 0, buf); err != nil {
					b.Fatal(err)
				}
				cc.Drop(nil, "bench")
				if err := cc.ReadRange(nil, "bench", 0, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
