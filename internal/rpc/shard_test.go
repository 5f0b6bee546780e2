package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/shardmap"
)

// shardRig spins up an N-shard metadata plane and a set of benefactors
// registered with every shard.
type shardRig struct {
	mgrs  []*ManagerServer
	bens  []*BenefactorServer
	addrs []string
}

func (r *shardRig) allAddrs() string { return strings.Join(r.addrs, ",") }

func newShardRig(t testing.TB, shards, bens int, cfg ManagerConfig) *shardRig {
	t.Helper()
	r := &shardRig{}
	for i := 0; i < shards; i++ {
		c := cfg
		c.ShardIndex, c.ShardCount = i, shards
		ms, err := NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin, c)
		if err != nil {
			t.Fatal(err)
		}
		r.mgrs = append(r.mgrs, ms)
		r.addrs = append(r.addrs, ms.Addr())
		t.Cleanup(func() { ms.Close() })
	}
	for _, ms := range r.mgrs {
		if err := ms.SetPeers(r.addrs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < bens; i++ {
		bs, err := NewBenefactorServer("127.0.0.1:0", r.allAddrs(), i, i,
			int64(shards)*64*testChunk, testChunk, benefactor.NewMem(), 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		r.bens = append(r.bens, bs)
		t.Cleanup(func() { bs.Close() })
	}
	return r
}

// nameOn returns a file name the n-shard map routes to the given shard.
func nameOn(t testing.TB, prefix string, shard, n int) string {
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

// checkShardInvariants asserts every shard's refcount bookkeeping holds.
func checkShardInvariants(t *testing.T, r *shardRig) {
	t.Helper()
	for i, ms := range r.mgrs {
		ms.mu.Lock()
		err := ms.mgr.CheckInvariants()
		ms.mu.Unlock()
		if err != nil {
			t.Fatalf("shard %d invariants: %v", i, err)
		}
	}
}

func TestShardedPutGetBothShards(t *testing.T) {
	r := newShardRig(t, 2, 3, ManagerConfig{})
	st, err := OpenWith(r.allAddrs(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.nShards(); got != 2 {
		t.Fatalf("client knows %d shards, want 2", got)
	}
	// One variable per shard; both must round-trip, and each shard's file
	// table must hold exactly its own.
	names := []string{nameOn(t, "a", 0, 2), nameOn(t, "b", 1, 2)}
	payloads := make(map[string][]byte)
	for i, name := range names {
		data := bytes.Repeat([]byte{byte('A' + i)}, 2*testChunk+777)
		payloads[name] = data
		if err := putFile(st, name, data); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
	}
	for _, name := range names {
		got, err := getFile(st, name)
		if err != nil {
			t.Fatalf("get %q: %v", name, err)
		}
		if !bytes.Equal(got, payloads[name]) {
			t.Fatalf("round trip mismatch for %q", name)
		}
	}
	for i, ms := range r.mgrs {
		ms.mu.Lock()
		files := ms.mgr.Files()
		ms.mu.Unlock()
		if len(files) != 1 || files[0] != names[i] {
			t.Fatalf("shard %d file table %v, want [%s]", i, files, names[i])
		}
	}
	// Chunk IDs are minted striped: every chunk of shard i's file must be
	// owned by shard i.
	for i, name := range names {
		fi, err := st.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range fi.Chunks {
			if owner := int((uint64(c.ID) - 1) % 2); owner != i {
				t.Fatalf("chunk %v of %q owned by shard %d, want %d", c, name, owner, i)
			}
		}
	}
	// Merged status sums the per-shard capacity splits back to the device
	// totals.
	bens, err := st.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(bens) != 3 {
		t.Fatalf("merged status has %d benefactors, want 3", len(bens))
	}
	for _, b := range bens {
		if b.Capacity != 2*64*testChunk {
			t.Fatalf("merged capacity %d for benefactor %d, want %d", b.Capacity, b.ID, 2*64*testChunk)
		}
		if !b.Alive {
			t.Fatalf("benefactor %d dead in merged status", b.ID)
		}
	}
	for _, name := range names {
		if err := st.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	checkShardInvariants(t, r)
}

func TestShardMapDiscoveryFromOneAddress(t *testing.T) {
	r := newShardRig(t, 2, 3, ManagerConfig{})
	// Connect with ONLY shard 0's address: the first response piggybacks
	// the peer roster and the client dials shard 1 on demand.
	st, err := OpenWith(r.addrs[0], fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.nShards(); got != 2 {
		t.Fatalf("client discovered %d shards, want 2", got)
	}
	name := nameOn(t, "remote", 1, 2)
	data := bytes.Repeat([]byte("x"), testChunk+13)
	if err := putFile(st, name, data); err != nil {
		t.Fatalf("put to undialed shard: %v", err)
	}
	got, err := getFile(st, name)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get from discovered shard: err=%v match=%v", err, bytes.Equal(got, data))
	}
	r.mgrs[1].mu.Lock()
	files := r.mgrs[1].mgr.Files()
	r.mgrs[1].mu.Unlock()
	if len(files) != 1 || files[0] != name {
		t.Fatalf("shard 1 file table %v, want [%s]", files, name)
	}
}

func TestStaleEpochRetriesOnce(t *testing.T) {
	r := newShardRig(t, 2, 2, ManagerConfig{})
	st, err := OpenWith(r.allAddrs(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	name := nameOn(t, "v", 0, 2)
	if err := st.Create(name, testChunk); err != nil {
		t.Fatal(err)
	}
	// Bump shard 0's epoch behind the client's back: a raw legacy-style
	// registration (MapEpoch 0 is never fenced) of a fresh benefactor.
	mc, err := DialManager(r.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if err := mc.Register(99, 9, "127.0.0.1:1", 64*testChunk); err != nil {
		t.Fatal(err)
	}
	before := st.Stats().MapRetries
	// The client's next op on shard 0 carries the stale epoch, gets fenced,
	// installs the piggybacked map, and succeeds on the single retry.
	if _, err := st.Stat(name); err != nil {
		t.Fatalf("stat after epoch bump: %v", err)
	}
	if after := st.Stats().MapRetries; after <= before {
		t.Fatalf("map retries %d -> %d, want an ErrStaleShardMap retry", before, after)
	}
}

// TestCrossShardLinkDeriveRemapDelete walks the client-orchestrated
// cross-shard refcount protocol end to end over TCP: a checkpoint on one
// shard links variables from both shards, a restore derives back across
// shards, a copy-on-write remap localizes a foreign chunk, and the final
// deletes drain every chunk on every shard.
func TestCrossShardLinkDeriveRemapDelete(t *testing.T) {
	r := newShardRig(t, 2, 3, ManagerConfig{})
	st, err := OpenWith(r.allAddrs(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	v0 := nameOn(t, "var-a", 0, 2) // variable on shard 0
	v1 := nameOn(t, "var-b", 1, 2) // variable on shard 1
	ck := nameOn(t, "ckpt", 1, 2)  // checkpoint on shard 1
	// Link concatenates chunk lists, so parts must be chunk-aligned.
	d0 := bytes.Repeat([]byte{0xA0}, 3*testChunk)
	d1 := bytes.Repeat([]byte{0xB1}, 2*testChunk)
	if err := putFile(st, v0, d0); err != nil {
		t.Fatal(err)
	}
	if err := putFile(st, v1, d1); err != nil {
		t.Fatal(err)
	}
	if err := st.Create(ck, 0); err != nil {
		t.Fatal(err)
	}
	// Cross-shard zero-copy merge: ck (shard 1) links v0 (shard 0) and v1
	// (shard 1) without moving a byte.
	ckInfo, err := st.Link(ck, []string{v0, v1})
	if err != nil {
		t.Fatalf("cross-shard link: %v", err)
	}
	want := append(append([]byte(nil), d0...), d1...)
	if ckInfo.Size != int64(len(d0))+int64(len(d1)) {
		t.Fatalf("checkpoint size %d, want %d", ckInfo.Size, len(d0)+len(d1))
	}
	got, err := getFile(st, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint read mismatch after cross-shard link")
	}
	checkShardInvariants(t, r)

	// The variables die; the checkpoint's holds keep the chunks alive.
	if err := st.Delete(v0); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(v1); err != nil {
		t.Fatal(err)
	}
	got, err = getFile(st, ck)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("checkpoint lost data after variable deletes: err=%v", err)
	}
	checkShardInvariants(t, r)

	// Cross-shard restore: a fresh variable on shard 0 derives the whole
	// checkpoint (src shard 1), sharing chunks owned by both shards.
	restored := nameOn(t, "restored", 0, 2)
	nChunks := len(ckInfo.Chunks)
	if _, err := st.Derive(restored, ck, 0, nChunks, ckInfo.Size); err != nil {
		t.Fatalf("cross-shard derive: %v", err)
	}
	got, err = getFile(st, restored)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored read mismatch: err=%v", err)
	}
	checkShardInvariants(t, r)

	// Copy-on-write on a chunk the restored file borrows from shard 1: the
	// remap copies onto a shard-0-owned chunk and releases the hold.
	ri, err := st.Stat(restored)
	if err != nil {
		t.Fatal(err)
	}
	foreignIdx := -1
	for i, c := range ri.Chunks {
		if int((uint64(c.ID)-1)%2) == 1 {
			foreignIdx = i
			break
		}
	}
	if foreignIdx < 0 {
		t.Fatal("restored file borrowed no shard-1 chunk")
	}
	fresh, err := st.Remap(restored, foreignIdx)
	if err != nil {
		t.Fatalf("cross-shard remap: %v", err)
	}
	if owner := int((uint64(fresh[0].ID) - 1) % 2); owner != 0 {
		t.Fatalf("remapped chunk %v owned by shard %d, want 0 (localized)", fresh[0], owner)
	}
	// The server-side copy preserved the payload, and the checkpoint still
	// reads its own (unmodified) chunk.
	got, err = getFile(st, restored)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored read after remap: err=%v", err)
	}
	patch := []byte("PATCHED")
	off := int64(foreignIdx) * testChunk
	if err := writeFile(st, restored, off, patch); err != nil {
		t.Fatal(err)
	}
	got, err = getFile(st, ck)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("checkpoint changed under a remapped write: err=%v", err)
	}
	checkShardInvariants(t, r)

	// Teardown drains both shards completely.
	if err := st.Delete(restored); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(ck); err != nil {
		t.Fatal(err)
	}
	for i, ms := range r.mgrs {
		ms.mu.Lock()
		n := ms.mgr.TotalChunks()
		ms.mu.Unlock()
		if n != 0 {
			t.Fatalf("shard %d leaked %d chunks", i, n)
		}
	}
	checkShardInvariants(t, r)
}

// TestShardKillOneSurvivorServes kills one manager shard and proves the
// other shard's keyspace stays fully readable and writable while the dead
// shard's names fail fast.
func TestShardKillOneSurvivorServes(t *testing.T) {
	r := newShardRig(t, 2, 3, ManagerConfig{})
	st, err := OpenWith(r.allAddrs(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	alive := nameOn(t, "alive", 0, 2)
	doomed := nameOn(t, "doomed", 1, 2)
	dataA := bytes.Repeat([]byte("A"), testChunk+9)
	dataD := bytes.Repeat([]byte("D"), testChunk+9)
	if err := putFile(st, alive, dataA); err != nil {
		t.Fatal(err)
	}
	if err := putFile(st, doomed, dataD); err != nil {
		t.Fatal(err)
	}

	r.mgrs[1].Close() // shard 1 dies

	// The surviving shard's keyspace is fully live: reads, in-place
	// writes, fresh creates, deletes.
	got, err := getFile(st, alive)
	if err != nil || !bytes.Equal(got, dataA) {
		t.Fatalf("read on surviving shard: err=%v", err)
	}
	if err := writeFile(st, alive, 3, []byte("patch")); err != nil {
		t.Fatalf("write on surviving shard: %v", err)
	}
	alive2 := nameOn(t, "alive-two", 0, 2)
	if err := putFile(st, alive2, dataA); err != nil {
		t.Fatalf("create on surviving shard: %v", err)
	}
	if err := st.Delete(alive2); err != nil {
		t.Fatalf("delete on surviving shard: %v", err)
	}
	// The dead shard's names fail with a transport error, not a hang and
	// not silent data loss. (Cached chunk maps still serve reads — only
	// metadata ops need the shard.)
	if _, err := st.Stat(doomed); err == nil {
		t.Fatal("stat of dead shard's name should fail")
	}
	// Refresh tolerates the dead shard (merged view from survivors).
	if err := st.Refresh(); err != nil {
		t.Fatalf("refresh with one shard down: %v", err)
	}
}

// TestShardRejoinFenceBlocksStaleReads is the §9-closure regression over
// TCP: a benefactor partitioned away (marked dead) misses a write; on
// rejoin the manager fences its pre-partition replica claims and the
// benefactor tombstones them BEFORE serving, so no client — even one with
// a stale cached chunk map — can ever read the written-around payload.
func TestShardRejoinFenceBlocksStaleReads(t *testing.T) {
	// Replication 2 over 3 benefactors on a single shard (epoch fencing
	// guards unsharded deployments too). A long heartbeat keeps the rejoin
	// out of the partition window.
	ms, err := NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin,
		ManagerConfig{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	var bens []*BenefactorServer
	for i := 0; i < 3; i++ {
		bs, err := NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 64*testChunk, testChunk,
			benefactor.NewMem(), 250*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		bens = append(bens, bs)
		defer bs.Close()
	}
	st, err := OpenWith(ms.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	old := bytes.Repeat([]byte("STALE"), testChunk/5)
	fresh := bytes.Repeat([]byte("FRESH"), testChunk/5)
	if err := putFile(st, "v", old); err != nil {
		t.Fatal(err)
	}
	pre, err := st.Stat("v")
	if err != nil {
		t.Fatal(err)
	}
	// Partition benefactor 0 (operator fence) and write around it.
	if err := st.Manager().MarkDead(0); err != nil {
		t.Fatal(err)
	}
	if err := st.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(st, "v", 0, fresh); err != nil {
		t.Fatal(err)
	}
	if st.Stats().DegradedWrites == 0 {
		// Benefactor 0 held no copy of chunk 0; place the write window on a
		// chunk it does replicate. (RoundRobin over 3 bens with R=2: chunk 0
		// lands on bens 0+1, so this should not happen — fail loudly.)
		t.Fatal("write was not degraded; partition window missed benefactor 0")
	}
	// Let the benefactor's next heartbeat discover the death and rejoin:
	// Register fences its claims, the fence-list is tombstoned locally.
	deadline := time.Now().Add(5 * time.Second)
	for {
		bensNow, err := st.Manager().Status()
		if err != nil {
			t.Fatal(err)
		}
		if bensNow[0].Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("benefactor 0 never rejoined")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := st.Refresh(); err != nil {
		t.Fatal(err)
	}
	// The client still holds the pre-partition chunk map whose primary may
	// be benefactor 0. The read must fail over / re-lookup to the fresh
	// payload — never return the stale bytes benefactor 0 held.
	buf := make([]byte, len(fresh))
	cc := newFileCache(st)
	cc.RegisterMeta(nil, pre)
	if err := cc.ReadRange(nil, "v", 0, buf); err != nil {
		t.Fatalf("read after rejoin: %v", err)
	}
	if bytes.Equal(buf, old) {
		t.Fatal("read returned the written-around (stale) payload: fence failed")
	}
	if !bytes.Equal(buf, fresh) {
		t.Fatalf("read returned neither payload: %q", buf[:16])
	}
	// A cold client (no cache at all) agrees.
	st2, err := OpenWith(ms.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := getFile(st2, "v")
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("cold client read: err=%v stale=%v", err, bytes.Equal(got, old))
	}
	// The fenced benefactor's claims are gone from the fresh map.
	fi, err := st2.Stat("v")
	if err != nil {
		t.Fatal(err)
	}
	for i, reps := range fi.Replicas {
		for _, c := range reps {
			if c.Benefactor == 0 {
				t.Fatalf("chunk %d still lists fenced benefactor 0: %v", i, reps)
			}
		}
	}
}

// TestReleaseRefsReplayTolerated pins the lenient release semantics the
// client's best-effort cleanup depends on: releasing refs that were never
// held (or replaying a release) must not error or corrupt accounting.
func TestReleaseRefsReplayTolerated(t *testing.T) {
	r := newShardRig(t, 2, 2, ManagerConfig{})
	st, err := OpenWith(r.allAddrs(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	name := nameOn(t, "f", 0, 2)
	if err := putFile(st, name, bytes.Repeat([]byte("x"), testChunk)); err != nil {
		t.Fatal(err)
	}
	fi, err := st.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	ids := []proto.ChunkID{fi.Chunks[0].ID, 424242}
	if _, err := st.callShard(0, proto.ManagerReq{Op: proto.OpReleaseRefs, IDs: ids}); err != nil {
		t.Fatalf("blind release errored: %v", err)
	}
	got, err := getFile(st, name)
	if err != nil || len(got) != testChunk {
		t.Fatalf("file damaged by blind release: err=%v", err)
	}
	checkShardInvariants(t, r)
	// Retain against the wrong shard must fail whole (no partial bumps).
	wrongOwner := []proto.ChunkID{fi.Chunks[0].ID}
	if _, err := st.callShard(1, proto.ManagerReq{Op: proto.OpRetainRefs, IDs: wrongOwner}); !errors.Is(err, proto.ErrNoSuchChunk) {
		t.Fatalf("retain at non-owner: %v, want ErrNoSuchChunk", err)
	}
	checkShardInvariants(t, r)
}
