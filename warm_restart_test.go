package nvmalloc_test

import (
	"bytes"
	"testing"
	"time"

	"nvmalloc"
	"nvmalloc/internal/filecache"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/rpc"
)

// The warm-restart scenario: a first client spills every chunk of a file
// to the persistent file tier (CacheDir), then fresh clients read the file
// back in the three states a restart can find. The benefactors sit behind
// emulated SSDs, so a chunk over the wire costs a device access and the
// scenario measures tier placement rather than loopback TCP.

const (
	warmFile   = "warm-restart"
	warmDevice = 1500 * time.Microsecond
)

// warmRig is a two-benefactor cluster holding warmFile, every chunk of
// which is also spilled to the file tier under dir.
type warmRig struct {
	addr, dir string
	chunk     int64
	payload   []byte
}

// warmState is one client state: its configuration, and how many times it
// reads the file (only the last pass is measured).
type warmState struct {
	name   string
	cfg    nvmalloc.ConnectConfig
	passes int
}

// warmPass is what a state's measured pass cost.
type warmPass struct {
	elapsed   time.Duration
	wireBytes int64 // chunk bytes fetched from the benefactors
	fileHits  int64 // chunks the file tier served
}

// newWarmRig writes the file and reads it back through a one-chunk RAM
// cache with the file tier attached, so every chunk is evicted clean and
// spills; Close commits the shards.
func newWarmRig(t testing.TB, chunk int64, chunks int) *warmRig {
	t.Helper()
	cl := startCluster(t, 2, chunk, 1, warmDevice)
	w := &warmRig{addr: cl.mgr.Addr(), dir: t.TempDir(), chunk: chunk, payload: make([]byte, chunk*int64(chunks))}
	for i := range w.payload {
		w.payload[i] = byte(i*131 + 17)
	}
	c, _ := w.open(t, nvmalloc.ConnectConfig{CacheBytes: chunk, ReadAheadChunks: -1, CacheDir: w.dir})
	if _, err := c.Malloc(nil, int64(len(w.payload)), nvmalloc.WithName(warmFile)); err != nil {
		t.Fatal(err)
	}
	cc := c.ChunkCache()
	if err := cc.WriteRange(nil, warmFile, 0, w.payload); err != nil {
		t.Fatal(err)
	}
	if err := cc.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	w.readAll(t, cc)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *warmRig) open(t testing.TB, cfg nvmalloc.ConnectConfig) (*nvmalloc.Client, *rpc.Store) {
	t.Helper()
	st, err := rpc.Open(w.addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := nvmalloc.ConnectStore(st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return c, st
}

// readAll reads the file chunk by chunk and checks every byte.
func (w *warmRig) readAll(t testing.TB, cc *fusecache.ChunkCache) {
	t.Helper()
	buf := make([]byte, w.chunk)
	for off := int64(0); off < int64(len(w.payload)); off += w.chunk {
		if err := cc.ReadRange(nil, warmFile, off, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w.payload[off:off+w.chunk]) {
			t.Fatalf("chunk at %d differs from the written payload", off)
		}
	}
}

// states are cold (no file tier, a RAM cache that holds the file: each
// chunk crosses the wire once), file-warm (a fresh client over the
// populated dir with a one-chunk RAM cache: every read misses RAM and hits
// a shard file) and RAM-warm (the second pass of a client whose RAM cache
// holds the file).
func (w *warmRig) states() []warmState {
	total := int64(len(w.payload))
	return []warmState{
		{"cold", nvmalloc.ConnectConfig{CacheBytes: total}, 1},
		{"file-warm", nvmalloc.ConnectConfig{CacheBytes: w.chunk, CacheDir: w.dir}, 1},
		{"RAM-warm", nvmalloc.ConnectConfig{CacheBytes: 2 * total, CacheDir: w.dir}, 2},
	}
}

// read opens a fresh client in state s, reads the file s.passes times and
// returns the cost of the last pass.
func (w *warmRig) read(t testing.TB, s warmState) warmPass {
	t.Helper()
	c, st := w.open(t, s.cfg)
	defer c.Close()
	cc := c.ChunkCache()
	fileHits := func() int64 {
		if tier, ok := cc.Store().(*filecache.Tier); ok {
			return tier.Stats().Hits
		}
		return 0
	}
	for i := 1; i < s.passes; i++ {
		w.readAll(t, cc)
	}
	wire, hits := st.Stats().SSDReadBytes, fileHits()
	start := time.Now()
	w.readAll(t, cc)
	return warmPass{time.Since(start), st.Stats().SSDReadBytes - wire, fileHits() - hits}
}

// TestConnectWarmRestart: a restart over a populated file tier reads every
// chunk from it, none over the wire, and at least twice as fast as a cold
// restart; a RAM-warm pass touches neither.
func TestConnectWarmRestart(t *testing.T) {
	const chunks = 64
	w := newWarmRig(t, 4<<10, chunks)
	var got []warmPass
	for _, s := range w.states() {
		p := w.read(t, s)
		t.Logf("%-9s %v: %d wire bytes, %d file hits", s.name, p.elapsed, p.wireBytes, p.fileHits)
		got = append(got, p)
	}
	cold, fwarm, rwarm := got[0], got[1], got[2]
	if cold.wireBytes == 0 || cold.fileHits != 0 {
		t.Errorf("cold pass should be all wire, no file tier: %+v", cold)
	}
	if fwarm.fileHits != chunks || fwarm.wireBytes != 0 {
		t.Errorf("file-warm pass should be all %d chunks from the file tier, no wire: %+v", chunks, fwarm)
	}
	if rwarm.wireBytes != 0 {
		t.Errorf("RAM-warm pass should not touch the wire: %+v", rwarm)
	}
	if 2*fwarm.elapsed > cold.elapsed {
		t.Errorf("file-warm pass took %v, more than half the cold pass's %v", fwarm.elapsed, cold.elapsed)
	}
	if rwarm.elapsed > fwarm.elapsed {
		t.Errorf("RAM-warm pass took %v, longer than the file-warm pass's %v", rwarm.elapsed, fwarm.elapsed)
	}
}

// BenchmarkWarmRestart reports each state's read throughput of an 8 MiB
// file in 64 KiB chunks (make warm-bench).
func BenchmarkWarmRestart(b *testing.B) {
	w := newWarmRig(b, 64<<10, 128)
	for _, s := range w.states() {
		b.Run(s.name, func(b *testing.B) {
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				elapsed += w.read(b, s).elapsed
			}
			b.ReportMetric(float64(len(w.payload))*float64(b.N)/1e6/elapsed.Seconds(), "MB/s")
		})
	}
}
