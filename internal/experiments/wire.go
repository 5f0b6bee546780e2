package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/store"
	"nvmalloc/internal/sysprof"
)

// wireChunk is the chunk geometry of the framing benchmark: 64 KiB, the
// paper's 256 KiB transfer unit at the repository's 1/4 bench scale.
const wireChunk = 64 * sysprof.KiB

// WireRow is the framing benchmark's result.
type WireRow struct {
	WriteMBps  float64
	ReadMBps   float64
	AllocPerOp float64 // heap bytes allocated per one-chunk read, process-wide
}

// WireFraming benchmarks the TCP chunk data path end to end — real sockets
// on loopback, in-memory benefactor backends so the wire (not an SSD) is the
// bottleneck — over NVM1 binary framing with pooled buffers. Unlike the
// other artifacts this one measures the implementation itself rather than
// reproducing a paper table: it feeds the nightly regression diff. (The gob
// envelope it was once compared against is a historical row in
// EXPERIMENTS.md.)
func WireFraming(o Opts) (WireRow, *Report, error) {
	ms, err := rpc.NewManagerServer("127.0.0.1:0", wireChunk, manager.RoundRobin)
	if err != nil {
		return WireRow{}, nil, err
	}
	defer ms.Close()
	for i := 0; i < 2; i++ {
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i,
			2*o.WireBytes, wireChunk, benefactor.NewMem(), 50*time.Millisecond)
		if err != nil {
			return WireRow{}, nil, err
		}
		defer bs.Close()
	}

	row, err := wireFramingRun(ms.Addr(), o.WireBytes)
	if err != nil {
		return WireRow{}, nil, err
	}

	rep := &Report{
		ID: "Wire",
		Title: fmt.Sprintf("chunk framing on the loopback TCP data path: %d MiB, %d KiB chunks, 2 benefactors",
			o.WireBytes>>20, wireChunk>>10),
		Columns: []string{"framing", "write (MB/s)", "chunk read (MB/s)", "alloc/chunk read (KiB)"},
	}
	rep.Add("NVM1 binary", mbps(row.WriteMBps), mbps(row.ReadMBps), fmt.Sprintf("%.1f", row.AllocPerOp/1024))
	rep.Note("NVM1 is the only chunk wire; its gob predecessor is kept as a historical row in EXPERIMENTS.md")
	rep.Note("reads are GetChunk calls 8 in flight with no whole-file copy, so \"chunk read\" is not comparable with the former \"cached read\" column, which timed whole-file Gets")
	return row, rep, nil
}

// wireFanout is how many chunk requests the benchmark keeps in flight: the
// width a TCP client's chunk cache fans out to.
const wireFanout = fusecache.DefaultFuseConcurrency

// wireFramingRun is the measurement: a streaming write of total bytes,
// repeated whole-file reads, then an allocation census over single-chunk
// reads. It drives the store client's chunk ops directly, wireFanout at a
// time, so the row times the transport and no cache above it.
func wireFramingRun(addr string, total int64) (WireRow, error) {
	st, err := rpc.Open(addr)
	if err != nil {
		return WireRow{}, err
	}
	defer st.Close()
	cl := rpc.NewStoreClient(st, 0)

	const file = "wire-nvm1"
	fi, err := cl.Create(nil, file, total)
	if err != nil {
		return WireRow{}, err
	}
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	nChunks := len(fi.Chunks)

	start := time.Now()
	if err := fanOut(nChunks, func(c int) error {
		return cl.PutChunk(nil, store.ReplicaRefs(fi, c), payload[int64(c)*wireChunk:int64(c+1)*wireChunk])
	}); err != nil {
		return WireRow{}, err
	}
	writeMBps := float64(total) / 1e6 / time.Since(start).Seconds()

	getChunk := func(c int) error {
		data, err := cl.GetChunk(nil, store.ReplicaRefs(fi, c))
		if err != nil {
			return err
		}
		cl.ReleaseChunk(data)
		return nil
	}
	if err := fanOut(nChunks, getChunk); err != nil { // warm every connection
		return WireRow{}, err
	}
	const readPasses = 4
	start = time.Now()
	for i := 0; i < readPasses; i++ {
		if err := fanOut(nChunks, getChunk); err != nil {
			return WireRow{}, err
		}
	}
	readMBps := float64(total) * readPasses / 1e6 / time.Since(start).Seconds()

	// Allocation census: one chunk read at a time, each payload handed
	// back to the pool, so the per-op number reflects the transport (client
	// and in-process servers).
	readAll := func() error {
		for c := 0; c < nChunks; c++ {
			if err := getChunk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := readAll(); err != nil {
		return WireRow{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := readAll(); err != nil {
		return WireRow{}, err
	}
	runtime.ReadMemStats(&after)
	allocPerOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(nChunks)

	if err := st.Delete(file); err != nil {
		return WireRow{}, err
	}
	return WireRow{WriteMBps: writeMBps, ReadMBps: readMBps, AllocPerOp: allocPerOp}, nil
}

// fanOut runs do(0..n-1) on wireFanout workers and returns the first error.
func fanOut(n int, do func(int) error) error {
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	errs := make(chan error, wireFanout)
	var wg sync.WaitGroup
	for w := 0; w < wireFanout; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := do(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}
