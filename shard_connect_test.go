package nvmalloc_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"nvmalloc"
	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/shardmap"
)

// shardedCluster is a 2-shard metadata plane over shared benefactors — the
// deployment `nvmstore manager -shard i/2` builds, in-process.
type shardedCluster struct {
	mgrs []*rpc.ManagerServer
	bens []*rpc.BenefactorServer
}

func (cl *shardedCluster) addrs() []string {
	out := make([]string, len(cl.mgrs))
	for i, ms := range cl.mgrs {
		out[i] = ms.Addr()
	}
	return out
}

func startShardedCluster(t testing.TB, shards, bens int, chunk int64) *shardedCluster {
	t.Helper()
	cl := &shardedCluster{}
	for i := 0; i < shards; i++ {
		ms, err := rpc.NewManagerServerWith("127.0.0.1:0", chunk, manager.RoundRobin, rpc.ManagerConfig{
			ShardIndex: i,
			ShardCount: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.mgrs = append(cl.mgrs, ms)
		t.Cleanup(func() { ms.Close() })
	}
	for _, ms := range cl.mgrs {
		if err := ms.SetPeers(cl.addrs()); err != nil {
			t.Fatal(err)
		}
	}
	all := strings.Join(cl.addrs(), ",")
	for i := 0; i < bens; i++ {
		bs, err := rpc.NewBenefactorServer("127.0.0.1:0", all, i, i, int64(shards)*256*chunk, chunk,
			benefactor.NewMem(), 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		cl.bens = append(cl.bens, bs)
		t.Cleanup(func() { bs.Close() })
	}
	return cl
}

// shardName returns a name the n-shard map routes to the given shard.
func shardName(t testing.TB, prefix string, shard, n int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if shardmap.ShardFor(name, n) == shard {
			return name
		}
	}
	t.Fatalf("no %q-prefixed name routes to shard %d/%d", prefix, shard, n)
	return ""
}

// TestShardedConnectCheckpointRestoreE2E drives the full library cycle —
// Malloc, writes, Checkpoint with cross-shard chunk linking, Restore, Free
// — through the facade against a 2-shard metadata plane, with the
// checkpointed variables living on BOTH shards, then kills one manager
// shard and proves the surviving shard's keyspace stays live.
func TestShardedConnectCheckpointRestoreE2E(t *testing.T) {
	const chunk = 4096
	cl := startShardedCluster(t, 2, 3, chunk)

	c, err := nvmalloc.Connect(strings.Join(cl.addrs(), ","), nvmalloc.ConnectConfig{
		CacheBytes:     16 * chunk,
		PageSize:       512,
		PageCacheBytes: 4 * chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One variable per shard; the checkpoint links both.
	const size = 4 * chunk
	v0name := shardName(t, "sh.state-a", 0, 2)
	v1name := shardName(t, "sh.state-b", 1, 2)
	v0, err := c.Malloc(nil, size, nvmalloc.WithName(v0name))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := c.Malloc(nil, size, nvmalloc.WithName(v1name))
	if err != nil {
		t.Fatal(err)
	}
	p0 := bytes.Repeat([]byte("shard-zero-gen0!"), size/16)
	p1 := bytes.Repeat([]byte("shard-one!-gen0!"), size/16)
	if err := v0.WriteAt(nil, 0, p0); err != nil {
		t.Fatal(err)
	}
	if err := v1.WriteAt(nil, 0, p1); err != nil {
		t.Fatal(err)
	}
	if err := v0.Sync(nil); err != nil {
		t.Fatal(err)
	}
	if err := v1.Sync(nil); err != nil {
		t.Fatal(err)
	}

	// Checkpoint both variables into one file: its shard links chunks owned
	// by the other shard through the retain/link protocol, without copying.
	wrote := c.ChunkCache().Stats().SSDWriteBytes
	dram := []byte("dram snapshot across shards")
	info, err := c.Checkpoint(nil, "sh.ckpt", dram, v0, v1)
	if err != nil {
		t.Fatal(err)
	}
	if info.LinkedChunks != 2*size/chunk {
		t.Fatalf("linked %d chunks, want %d", info.LinkedChunks, 2*size/chunk)
	}
	if moved := c.ChunkCache().Stats().SSDWriteBytes - wrote; moved >= size {
		t.Fatalf("checkpoint moved %d B — cross-shard links were copied, not linked", moved)
	}

	// Post-checkpoint mutation goes copy-on-write even across shards.
	if err := v0.WriteAt(nil, 0, bytes.Repeat([]byte("shard-zero-gen1!"), chunk/16)); err != nil {
		t.Fatal(err)
	}
	if err := v0.Sync(nil); err != nil {
		t.Fatal(err)
	}

	// Restore both regions from the checkpoint (cross-shard derive).
	dramBack := make([]byte, len(dram))
	if err := c.ReadCheckpointDRAM(nil, "sh.ckpt", dramBack); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dramBack, dram) {
		t.Fatalf("DRAM restore mismatch: %q", dramBack)
	}
	for i, want := range [][]byte{p0, p1} {
		restored, err := c.RestoreRegion(nil, "sh.ckpt", info.Regions[i],
			shardName(t, fmt.Sprintf("sh.rest%d-", i), i, 2))
		if err != nil {
			t.Fatalf("restore region %d: %v", i, err)
		}
		back := make([]byte, size)
		if err := restored.ReadAt(nil, 0, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, want) {
			t.Fatalf("restored region %d does not match generation-0 state", i)
		}
		if err := restored.Free(nil); err != nil {
			t.Fatal(err)
		}
	}

	// ssdfree + checkpoint delete drains the cross-shard references.
	if err := v0.Free(nil); err != nil {
		t.Fatal(err)
	}
	if err := v1.Free(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteCheckpoint(nil, "sh.ckpt"); err != nil {
		t.Fatal(err)
	}

	// Kill shard 1: shard 0's keyspace stays fully writable and readable.
	cl.mgrs[1].Close()
	surv, err := c.Malloc(nil, chunk, nvmalloc.WithName(shardName(t, "sh.surv", 0, 2)))
	if err != nil {
		t.Fatalf("malloc on surviving shard after shard death: %v", err)
	}
	pat := bytes.Repeat([]byte{0x5A}, chunk)
	if err := surv.WriteAt(nil, 0, pat); err != nil {
		t.Fatal(err)
	}
	if err := surv.Sync(nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, chunk)
	if err := surv.ReadAt(nil, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat) {
		t.Fatal("surviving shard read mismatch")
	}
	if err := surv.Free(nil); err != nil {
		t.Fatal(err)
	}
	// The dead shard's keyspace errors instead of hanging or lying.
	if _, err := c.Malloc(nil, chunk, nvmalloc.WithName(shardName(t, "sh.dead", 1, 2))); err == nil {
		t.Fatal("malloc on dead shard should fail")
	}
}

// TestShardedRestoreAfterWritesFetchesNothing is ckpt-cycle's step at two
// shards: checkpoint, write 4 pages in each of 13 chunks, checkpoint again,
// restore the previous checkpoint. The chunks the writes changed still read
// the previous checkpoint's bytes out of the client's RAM: their first
// writes kept those bytes as the checkpoint's entries, so the restore
// issues no chunk get at all.
func TestShardedRestoreAfterWritesFetchesNothing(t *testing.T) {
	const (
		chunk   = 16 << 10
		page    = 1 << 10
		chunks  = 32
		changed = 13
	)
	cl := startShardedCluster(t, 2, 3, chunk)
	st, err := rpc.OpenWith(strings.Join(cl.addrs(), ","), rpc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := nvmalloc.ConnectStore(st, nvmalloc.ConnectConfig{CacheBytes: 4 * chunks * chunk, PageSize: page})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	defer c.Close()

	live := make([]byte, chunks*chunk)
	for i := range live {
		live[i] = byte(i / page)
	}
	v, err := c.Malloc(nil, int64(len(live)), nvmalloc.WithName(shardName(t, "pre.var", 0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.WriteAt(nil, 0, live); err != nil {
		t.Fatal(err)
	}
	dram := []byte("dram")
	prev, err := c.Checkpoint(nil, shardName(t, "pre.ckpt-a", 1, 2), dram, v)
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]byte(nil), live...)
	for k := 0; k < changed; k++ {
		for _, pg := range []int{0, 3, 7, 12} {
			off := (2*k)*chunk + pg*page
			for i := off; i < off+page; i++ {
				live[i] = 0xF0 ^ byte(k)
			}
			if err := v.WriteAt(nil, int64(off), live[off:off+page]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.Checkpoint(nil, shardName(t, "pre.ckpt-b", 1, 2), dram, v); err != nil {
		t.Fatal(err)
	}

	gets := st.Stats().ChunkGets
	r, err := c.RestoreRegion(nil, prev.Name, prev.Regions[0], shardName(t, "pre.rest", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(snap))
	if err := r.ReadAt(nil, 0, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, snap) {
		t.Fatal("restored region does not read the previous checkpoint's bytes")
	}
	if d := st.Stats().ChunkGets - gets; d != 0 {
		t.Errorf("restore issued %d chunk gets, want 0", d)
	}
	if err := v.ReadAt(nil, 0, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, live) {
		t.Fatal("live variable does not read its new bytes")
	}
	if err := r.Free(nil); err != nil {
		t.Fatal(err)
	}
}
