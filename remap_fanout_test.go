package nvmalloc_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"nvmalloc"
	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/rpc"
)

// TestConcurrentRemapsNeverExposeUnwrittenChunk: a checkpointed variable's
// Sync fans 13 copy-on-write remaps out at once over 1 ms devices, while a
// second client keeps re-resolving and reading the file. The manager
// publishes a fresh chunk only after every surviving replica holds the
// copied payload, so each read sees the pre- or the post-writeback bytes of
// a chunk — never the zeroes of a reserved-but-unwritten one.
func TestConcurrentRemapsNeverExposeUnwrittenChunk(t *testing.T) {
	const (
		chunk  = 4096
		page   = 512
		chunks = 13
	)
	mgr, err := rpc.NewManagerServerWith("127.0.0.1:0", chunk, manager.RoundRobin, rpc.ManagerConfig{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	var bens []*rpc.BenefactorServer
	for i := 0; i < 3; i++ {
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", mgr.Addr(), i, i, 256*chunk, chunk,
			benefactor.Delay(benefactor.NewMem(), time.Millisecond), 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer bs.Close()
		bens = append(bens, bs)
	}
	c, err := nvmalloc.Connect(mgr.Addr(), nvmalloc.ConnectConfig{CacheBytes: 2 * chunks * chunk, PageSize: page})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const name = "fan.var"
	r, err := c.Malloc(nil, chunks*chunk, nvmalloc.WithName(name))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteAt(nil, 0, bytes.Repeat([]byte{'A'}, chunks*chunk)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(nil, "fan.ckpt", []byte("dram"), r); err != nil {
		t.Fatal(err)
	}
	// Dirty the first page of every chunk: 13 shared chunks to remap.
	for i := 0; i < chunks; i++ {
		if err := r.WriteAt(nil, int64(i)*chunk, bytes.Repeat([]byte{'B'}, page)); err != nil {
			t.Fatal(err)
		}
	}

	reader, err := rpc.Open(mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	// verify reads every chunk through a fresh lookup; post additionally
	// requires the written-back state.
	verify := func(post bool) error {
		if _, err := reader.Stat(name); err != nil {
			return err
		}
		buf := make([]byte, chunk)
		for i := 0; i < chunks; i++ {
			if err := reader.ReadAt(name, int64(i)*chunk, buf); err != nil {
				return fmt.Errorf("chunk %d: %w", i, err)
			}
			head, tail := buf[:page], buf[page:]
			oldHead := bytes.Count(head, []byte{'A'}) == page
			newHead := bytes.Count(head, []byte{'B'}) == page
			if bytes.Count(tail, []byte{'A'}) != len(tail) || !(newHead || oldHead && !post) {
				return fmt.Errorf("chunk %d reads %q… / %q… (post=%v): neither the checkpointed nor the written-back bytes",
					i, head[:4], tail[:4], post)
			}
		}
		return nil
	}
	stop := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				readErr <- nil
				return
			default:
			}
			if err := verify(false); err != nil {
				readErr <- err
				return
			}
		}
	}()

	syncErr := r.Sync(nil)
	close(stop)
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
	if syncErr != nil {
		t.Fatal(syncErr)
	}
	if got := c.ChunkCache().Stats().Remaps; got != chunks {
		t.Fatalf("%d remaps, want %d", got, chunks)
	}
	if err := verify(true); err != nil {
		t.Fatal(err)
	}

	if err := r.Free(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteCheckpoint(nil, "fan.ckpt"); err != nil {
		t.Fatal(err)
	}
	for i, bs := range bens {
		if u := bs.Store().Used(); u != 0 {
			t.Fatalf("benefactor %d still holds %d bytes after teardown", i, u)
		}
	}
}
