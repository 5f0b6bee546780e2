package experiments

import (
	"fmt"
	"runtime"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/sysprof"
)

// wireChunk is the chunk geometry of the framing benchmark: 64 KiB, the
// paper's 256 KiB transfer unit at the repository's 1/4 bench scale.
const wireChunk = 64 * sysprof.KiB

// WireRow is the framing benchmark's result.
type WireRow struct {
	WriteMBps  float64
	ReadMBps   float64
	AllocPerOp float64 // heap bytes allocated per cached one-chunk read, process-wide
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
		Columns: []string{"framing", "write (MB/s)", "cached read (MB/s)", "alloc/chunk read (KiB)"},
	}
	rep.Add("NVM1 binary", mbps(row.WriteMBps), mbps(row.ReadMBps), fmt.Sprintf("%.1f", row.AllocPerOp/1024))
	rep.Note("NVM1 is the only chunk wire; its gob predecessor is kept as a historical row in EXPERIMENTS.md")
	return row, rep, nil
}

// wireFramingRun is the measurement: a streaming write of total bytes,
// repeated cached whole-file reads, then an allocation census over
// chunk-granular reads.
func wireFramingRun(addr string, total int64) (WireRow, error) {
	st, err := rpc.Open(addr)
	if err != nil {
		return WireRow{}, err
	}
	defer st.Close()

	const file = "wire-nvm1"
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	start := time.Now()
	if err := st.Put(file, payload); err != nil {
		return WireRow{}, err
	}
	writeMBps := float64(total) / 1e6 / time.Since(start).Seconds()

	if _, err := st.Get(file); err != nil { // warm every connection
		return WireRow{}, err
	}
	const readPasses = 4
	start = time.Now()
	for i := 0; i < readPasses; i++ {
		if _, err := st.Get(file); err != nil {
			return WireRow{}, err
		}
	}
	readMBps := float64(total) * readPasses / 1e6 / time.Since(start).Seconds()

	// Allocation census: chunk-granular reads into a reused buffer, so the
	// per-op number reflects the transport (client and in-process servers),
	// not the caller's result slice.
	buf := make([]byte, wireChunk)
	nChunks := int(total / wireChunk)
	readAll := func() error {
		for c := 0; c < nChunks; c++ {
			if err := st.ReadAt(file, int64(c)*wireChunk, buf); err != nil {
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
