package filecache

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nvmalloc/internal/obs"
)

// manualConfig returns a deterministic test config: one shard, no
// background flusher (commits only via Commit/Close).
func manualConfig(dir string) Config {
	return Config{Dir: dir, MaxBytes: 1 << 20, Shards: 1, FlushInterval: -1, Obs: obs.New("test")}
}

func chunkPattern(key uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(uint64(i)*2654435761 + key*31 + 7)
	}
	return b
}

func TestCachePutGetCommitReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(manualConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 20; k++ {
		c.Put(k, k%4, chunkPattern(k, 512))
	}
	for k := uint64(1); k <= 20; k++ { // pending (uncommitted) reads
		data, gen, ok := c.Get(k)
		if !ok || gen != k%4 || !bytes.Equal(data, chunkPattern(k, 512)) {
			t.Fatalf("pending Get(%d) = ok=%v gen=%d", k, ok, gen)
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 20; k++ { // committed (mmap-backed) reads
		data, gen, ok := c.Get(k)
		if !ok || gen != k%4 || !bytes.Equal(data, chunkPattern(k, 512)) {
			t.Fatalf("committed Get(%d) = ok=%v gen=%d", k, ok, gen)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(manualConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for k := uint64(1); k <= 20; k++ {
		data, gen, ok := c2.Get(k)
		if !ok || gen != k%4 || !bytes.Equal(data, chunkPattern(k, 512)) {
			t.Fatalf("reopened Get(%d) = ok=%v gen=%d", k, ok, gen)
		}
	}
	if st := c2.Stats(); st.Rebuilds != 0 {
		t.Fatalf("clean reopen counted %d rebuilds", st.Rebuilds)
	}
}

func TestCacheInvalidate(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(manualConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Put(1, 0, chunkPattern(1, 128))
	c.Invalidate(1)
	if _, _, ok := c.Get(1); ok {
		t.Fatal("Get after Invalidate returned an entry")
	}
	// Invalidating a committed entry creates the marker; the following
	// commit scrubs the entry and clears it again.
	c.Put(2, 0, chunkPattern(2, 128))
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(2)
	if _, err := os.Stat(filepath.Join(dir, markerName)); err != nil {
		t.Fatalf("marker missing after committed-entry invalidation: %v", err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, markerName)); !os.IsNotExist(err) {
		t.Fatalf("marker still present after commit: %v", err)
	}
}

func TestCacheEvictsOldestWithinCapacity(t *testing.T) {
	dir := t.TempDir()
	cfg := manualConfig(dir)
	cfg.MaxBytes = 4 * 256 // room for 4 entries
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := uint64(1); k <= 10; k++ {
		c.Put(k, 0, chunkPattern(k, 256))
	}
	st := c.Stats()
	if st.LiveEntries != 4 || st.Evictions != 6 {
		t.Fatalf("stats = %+v, want 4 live, 6 evictions", st)
	}
	for k := uint64(1); k <= 6; k++ {
		if _, _, ok := c.Get(k); ok {
			t.Fatalf("evicted key %d still served", k)
		}
	}
	for k := uint64(7); k <= 10; k++ {
		if _, _, ok := c.Get(k); !ok {
			t.Fatalf("recent key %d was evicted", k)
		}
	}
}

// TestOpenRebuildsOnAnyCorruptByte is the acceptance check: flipping any
// single byte of a shard file never fails the open — the shard either
// still validates (impossible here: every byte is covered by a CRC or is
// the payload of a live entry) or rebuilds from empty with a counted,
// logged rebuild event; and no corrupted payload is ever served.
func TestOpenRebuildsOnAnyCorruptByte(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(manualConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 3; k++ {
		c.Put(k, 1, chunkPattern(k, 200))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(dir, "shard-000.nvc")
	orig, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	structured := int(payloadOff(3))

	for pos := 0; pos < len(orig); pos++ {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0xff
		if err := os.WriteFile(shardPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := manualConfig(dir)
		c2, err := Open(cfg)
		if err != nil {
			t.Fatalf("corrupt byte %d: Open failed: %v", pos, err)
		}
		rebuilt := c2.Stats().Rebuilds > 0
		if pos < structured && !rebuilt {
			t.Fatalf("corrupt byte %d in header/index did not rebuild", pos)
		}
		if rebuilt {
			events := cfg.Obs.Spans.Filter(func(s obs.Span) bool { return s.Name == "filecache.rebuild" })
			if len(events) == 0 {
				t.Fatalf("corrupt byte %d: rebuild happened without a filecache.rebuild event", pos)
			}
		}
		// Payload corruption passes the open (CRCs are lazy) but must be
		// caught at read time: a Get either misses or returns exact bytes.
		for k := uint64(1); k <= 3; k++ {
			if data, _, ok := c2.Get(k); ok && !bytes.Equal(data, chunkPattern(k, 200)) {
				t.Fatalf("corrupt byte %d: Get(%d) served wrong bytes", pos, k)
			}
		}
		if !rebuilt {
			// One of the three payloads was corrupted: it must have been
			// dropped with a corrupt-payload count, not served.
			if st := c2.Stats(); st.CorruptPayloads != 1 {
				t.Fatalf("corrupt byte %d: CorruptPayloads=%d, want 1", pos, st.CorruptPayloads)
			}
		}
		c2.Close()
	}
}

func TestOpenRebuildsOnDirtyMarker(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(manualConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	c.Put(1, 0, chunkPattern(1, 64))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that lost invalidations: marker present at Open.
	if err := os.WriteFile(filepath.Join(dir, markerName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(manualConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, ok := c2.Get(1); ok {
		t.Fatal("entry survived a dirty-marker rebuild")
	}
	if st := c2.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", st.Rebuilds)
	}
}

// TestInvalidateEvictedOnDiskKeySetsMarker pins the marker protocol for a
// key that is gone from memory but still sits in the last committed
// snapshot: the eviction only dropped it from the entry map, so a crash
// after the invalidation would otherwise resurrect the stale on-disk
// copy at the next Open.
func TestInvalidateEvictedOnDiskKeySetsMarker(t *testing.T) {
	dir := t.TempDir()
	cfg := manualConfig(dir)
	cfg.MaxBytes = 4 * 256 // room for 4 entries
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(1, 1, chunkPattern(1, 256))
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	// Push key 1 out of memory without committing: the shard file keeps it.
	for k := uint64(2); k <= 5; k++ {
		c.Put(k, 1, chunkPattern(k, 256))
	}
	if _, _, ok := c.Get(1); ok {
		t.Fatal("key 1 was not evicted")
	}
	c.Invalidate(1)
	if _, err := os.Stat(filepath.Join(dir, markerName)); err != nil {
		t.Fatalf("marker missing after invalidating an evicted on-disk key: %v", err)
	}
	// Crash (abandon without Close): the reopen must rebuild, not serve.
	c2, err := Open(manualConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, ok := c2.Get(1); ok {
		t.Fatal("stale on-disk entry served after crash")
	}
	if st := c2.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", st.Rebuilds)
	}
}

// TestInvalidateReplacedCommittedKeySetsMarker pins the marker protocol
// for a committed key shadowed by a pending Put: the live entry is
// uncommitted, but the prior committed version still sits in the shard
// file, and a crash after the invalidation would resurrect it.
func TestInvalidateReplacedCommittedKeySetsMarker(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(manualConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	c.Put(7, 1, chunkPattern(7, 128))
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Put(7, 2, chunkPattern(77, 128)) // pending replacement
	c.Invalidate(7)
	if _, err := os.Stat(filepath.Join(dir, markerName)); err != nil {
		t.Fatalf("marker missing after invalidating a replaced committed key: %v", err)
	}
	c2, err := Open(manualConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, ok := c2.Get(7); ok {
		t.Fatal("stale committed version served after crash")
	}
}

// TestMarkerSurvivesCommitInvalidateRaces hammers Put/Invalidate against
// a concurrent committer, then invalidates every key and simulates a
// crash. A marker-clear racing an invalidation (the clear sampling the
// sequence before the invalidation bumped it, then removing the marker
// the invalidation just created) would leave a committed stale entry
// servable after the reopen.
func TestMarkerSurvivesCommitInvalidateRaces(t *testing.T) {
	dir := t.TempDir()
	cfg := manualConfig(dir)
	cfg.Shards = 2
	cfg.ShardRange = 4
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 32
	stop := make(chan struct{})
	committerDone := make(chan struct{})
	go func() {
		defer close(committerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Commit()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				k := uint64(rng.Intn(nKeys))
				if rng.Intn(3) == 0 {
					c.Invalidate(k)
				} else {
					c.Put(k, uint64(i), chunkPattern(k, 64+rng.Intn(64)))
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(stop)
	<-committerDone
	// Final sweep: drop everything, then crash before any further commit.
	for k := uint64(0); k < nKeys; k++ {
		c.Invalidate(k)
	}
	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for k := uint64(0); k < nKeys; k++ {
		if _, _, ok := c2.Get(k); ok {
			t.Fatalf("invalidated key %d served after crash", k)
		}
	}
}

// TestOpenClampsShardCapacity pins the 4 GiB NVC1 format guard: a config
// whose MaxBytes/Shards quotient exceeds the uint32 offset space must get
// per-shard capacities clamped, not shard files that silently truncate
// offsets at commit time.
func TestOpenClampsShardCapacity(t *testing.T) {
	dir := t.TempDir()
	cfg := manualConfig(dir)
	cfg.MaxBytes = 64 << 30
	cfg.Shards = 8 // 8 GiB per shard uncapped
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, sh := range c.shd {
		if sh.capacity > maxShardPayload {
			t.Fatalf("shard %d capacity %d exceeds the format-safe payload bound %d", i, sh.capacity, maxShardPayload)
		}
	}
}

// crashChildEnv gates the re-exec child below.
const crashChildEnv = "NVC_CRASH_CHILD_DIR"

// TestCrashChild is not a test: it is the writer process the crash-
// recovery loop SIGKILLs mid-commit. It writes deterministic payloads
// with a fast flusher and periodic invalidations until killed.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("crash-child mode only")
	}
	c, err := Open(Config{Dir: dir, MaxBytes: 1 << 20, Shards: 2, FlushInterval: time.Millisecond})
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child open: %v\n", err)
		os.Exit(3)
	}
	fmt.Println("CHILD-RUNNING") // parent waits for this before killing
	// Phase 1 (~10ms): puts interleaved with invalidations, so kills here
	// land with the dirty marker on and the reopen rebuilds. Phase 2: pure
	// puts — the next quiet commit clears the marker, so later kills land
	// on a validating snapshot. The parent's varying kill delay samples
	// both phases across the loop.
	for i := uint64(0); ; i++ {
		k := i % 64
		c.Put(k, 0, chunkPattern(k, 1024))
		if i < 100 && i%17 == 0 {
			c.Invalidate((i / 17) % 64)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCrashRecoveryLoop kills a committing writer 20 times (4 under
// -short) and asserts every reopen either validates or rebuilds clean:
// Open never errors, and every surviving entry reads back byte-exact.
func TestCrashRecoveryLoop(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	iters := 20
	if testing.Short() {
		iters = 4
	}
	dir := t.TempDir()
	servedTotal := 0
	for i := 0; i < iters; i++ {
		cmd := exec.Command(exe, "-test.run", "^TestCrashChild$", "-test.v")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Wait for the child to be mid-workload, then let it commit a few
		// times (1ms flush interval) and kill it at a varying point.
		readyBuf := make([]byte, 1)
		deadline := time.Now().Add(10 * time.Second)
		var line []byte
		for time.Now().Before(deadline) {
			n, rerr := stdout.Read(readyBuf)
			if n > 0 {
				line = append(line, readyBuf[0])
				if bytes.Contains(line, []byte("CHILD-RUNNING")) {
					break
				}
			}
			if rerr != nil {
				break
			}
		}
		if !bytes.Contains(line, []byte("CHILD-RUNNING")) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("iteration %d: child never reported running (output %q)", i, line)
		}
		time.Sleep(time.Duration(15+(i*13)%90) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
			t.Fatal(err)
		}
		cmd.Wait()

		c, err := Open(Config{Dir: dir, MaxBytes: 1 << 20, Shards: 2, FlushInterval: -1, Obs: obs.New("crash")})
		if err != nil {
			t.Fatalf("iteration %d: reopen after crash failed: %v", i, err)
		}
		served := 0
		for k := uint64(0); k < 64; k++ {
			data, _, ok := c.Get(k)
			if !ok {
				continue
			}
			served++
			if !bytes.Equal(data, chunkPattern(k, 1024)) {
				t.Fatalf("iteration %d: key %d read back wrong bytes after crash", i, k)
			}
		}
		servedTotal += served
		t.Logf("iteration %d: reopen served %d/64 entries (rebuilds=%d)", i, served, c.Stats().Rebuilds)
		if err := c.Close(); err != nil {
			t.Fatalf("iteration %d: close: %v", i, err)
		}
	}
	// The loop must exercise the validate path, not only rebuilds: at
	// least one kill lands after the child's invalidation phase, when the
	// marker is clear and the snapshot serves.
	if servedTotal == 0 {
		t.Fatal("every crash iteration rebuilt from empty; the validate path was never exercised")
	}
}
