package rpc

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/cluster"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/simstore"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/store"
	"nvmalloc/internal/sysprof"
)

// substrate is one store the conformance script runs against: its
// store.Client, the manager operations that are not part of that
// interface, and read access to the manager and benefactor state.
type substrate struct {
	client store.Client
	// step runs fn in the substrate's execution context.
	step   func(fn func(ctx store.Ctx) error) error
	expire func(ctx store.Ctx) error
	kill   func(ben int) error
	repair func(ctx store.Ctx) error
	rejoin func(ben int) error
	// inspect runs fn with the manager quiescent.
	inspect func(fn func(m *manager.Manager))
	bens    []*benefactor.Store
}

const confBens = 4

// tcpSubstrate is a loopback ManagerServer at replication 2 with confBens
// benefactors, no heartbeats and no sweep: only the script changes state.
func tcpSubstrate(t *testing.T) *substrate {
	ms, err := NewManagerServerWith("127.0.0.1:0", testChunk, manager.RoundRobin, ManagerConfig{Replication: 2, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	sub := &substrate{}
	var servers []*BenefactorServer
	for i := 0; i < confBens; i++ {
		bs, err := NewBenefactorServer("127.0.0.1:0", ms.Addr(), i, i, 64*testChunk, testChunk, benefactor.NewMem(), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bs.Close() })
		servers = append(servers, bs)
		sub.bens = append(sub.bens, bs.Store())
	}
	st, err := Open(ms.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	mc := st.Manager()
	sub.client = NewStoreClient(st, 0)
	sub.step = func(fn func(store.Ctx) error) error { return fn(nil) }
	sub.expire = func(store.Ctx) error { _, err := mc.Expire(); return err }
	sub.kill = mc.MarkDead
	sub.repair = func(store.Ctx) error {
		res, err := mc.Repair()
		if err == nil && res.Failed > 0 {
			err = fmt.Errorf("%d repair copies failed", res.Failed)
		}
		return err
	}
	sub.rejoin = func(ben int) error { return servers[ben].registerWith(servers[ben].mcs[0]) }
	sub.inspect = func(fn func(*manager.Manager)) {
		ms.mu.Lock()
		defer ms.mu.Unlock()
		fn(ms.mgr)
	}
	return sub
}

// simSubstrate is the same store in the simulator: confBens benefactors
// on their own nodes, the manager on node 0, replication 2.
func simSubstrate(t *testing.T) *substrate {
	e := simtime.NewEngine()
	prof := sysprof.Bench()
	prof.ChunkSize = testChunk
	s := simstore.New(cluster.New(e, prof), 0, []int{0, 1, 2, 3}, 64*testChunk, manager.RoundRobin)
	s.Mgr.Replication = 2
	sub := &substrate{client: s.Client(0)}
	for _, id := range s.Benefactors() {
		sub.bens = append(sub.bens, s.Benefactor(id))
	}
	sub.step = func(fn func(store.Ctx) error) error {
		var err error
		e.Go("step", func(p *simtime.Proc) { err = fn(p) })
		e.Run()
		return err
	}
	sub.expire = func(ctx store.Ctx) error { _, err := s.ExpireSweep(ctx.(*simtime.Proc)); return err }
	sub.kill = func(ben int) error { s.Kill(ben); return nil }
	sub.repair = func(ctx store.Ctx) error { _, _, err := s.Repair(ctx.(*simtime.Proc)); return err }
	sub.rejoin = func(ben int) error { s.Revive(ben); return nil }
	sub.inspect = func(fn func(*manager.Manager)) { fn(s.Mgr) }
	return sub
}

// confState is everything the conformance test compares between
// substrates after a step.
type confState struct {
	Files []proto.FileInfo
	Bens  []proto.BenefactorInfo // ID, Capacity, Used, Alive only
	// Held maps each benefactor to its chunks' first payload byte (every
	// payload the script writes is nonzero; an absent chunk reads zeroes).
	Held []map[proto.ChunkID]byte
	Used []int64
}

func (sub *substrate) state(t *testing.T) confState {
	t.Helper()
	var st confState
	sub.inspect(func(m *manager.Manager) {
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, name := range m.Files() {
			fi, err := m.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			st.Files = append(st.Files, fi)
		}
		for _, b := range m.Status() {
			st.Bens = append(st.Bens, proto.BenefactorInfo{ID: b.ID, Capacity: b.Capacity, Used: b.Used, Alive: b.Alive})
		}
	})
	for _, b := range sub.bens {
		held := make(map[proto.ChunkID]byte)
		for id := proto.ChunkID(1); id <= 64; id++ {
			if d, err := b.GetChunk(id); err == nil && d[0] != 0 {
				held[id] = d[0]
			}
		}
		st.Held = append(st.Held, held)
		st.Used = append(st.Used, b.Used())
	}
	return st
}

// TestSubstratesConform runs one scripted sequence of metadata transitions
// against the simulated store and a loopback TCP store with the same
// benefactors at replication 2, and requires identical manager and
// benefactor state after every step: the two drive the same manager.Apply
// orchestration, so their chunk maps, replica sets, occupancy and chunk
// inventories must not drift apart.
func TestSubstratesConform(t *testing.T) {
	const cs = testChunk
	fill := func(ctx store.Ctx, c store.Client, name string, idx int, b byte) error {
		fi, err := c.Lookup(ctx, name)
		if err != nil {
			return err
		}
		return c.PutChunk(ctx, fi.Replicas[idx], bytes.Repeat([]byte{b}, cs))
	}
	const victim = 1
	script := []struct {
		name string
		do   func(sub *substrate, ctx store.Ctx) error
	}{
		{"create", func(sub *substrate, ctx store.Ctx) error {
			if _, err := sub.client.Create(ctx, "var", 3*cs); err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				if err := fill(ctx, sub.client, "var", i, byte(1+i)); err != nil {
					return err
				}
			}
			_, err := sub.client.Create(ctx, "ckpt", 0)
			return err
		}},
		{"link", func(sub *substrate, ctx store.Ctx) error {
			_, err := sub.client.Link(ctx, "ckpt", []string{"var"})
			return err
		}},
		{"derive", func(sub *substrate, ctx store.Ctx) error {
			_, err := sub.client.Derive(ctx, "view", "ckpt", 1, 2, 2*cs)
			return err
		}},
		{"remap-shared", func(sub *substrate, ctx store.Ctx) error {
			refs, err := sub.client.Remap(ctx, "var", 0)
			if err != nil {
				return err
			}
			return sub.client.PutChunk(ctx, refs, bytes.Repeat([]byte{9}, cs))
		}},
		{"delete", func(sub *substrate, ctx store.Ctx) error {
			return sub.client.Delete(ctx, "ckpt") // frees var's pre-remap chunk 0
		}},
		{"ttl-expire", func(sub *substrate, ctx store.Ctx) error {
			if _, err := sub.client.Create(ctx, "tmp", cs); err != nil {
				return err
			}
			if err := fill(ctx, sub.client, "tmp", 0, 7); err != nil {
				return err
			}
			if err := sub.client.SetTTL(ctx, "tmp", time.Nanosecond); err != nil {
				return err
			}
			return sub.expire(ctx)
		}},
		{"ttl-zero", func(sub *substrate, ctx store.Ctx) error {
			if _, err := sub.client.Create(ctx, "tmp0", cs); err != nil {
				return err
			}
			if err := sub.client.SetTTL(ctx, "tmp0", 0); err != nil { // clears: tmp0 stays
				return err
			}
			return sub.expire(ctx)
		}},
		{"markdead", func(sub *substrate, ctx store.Ctx) error { return sub.kill(victim) }},
		{"repair", func(sub *substrate, ctx store.Ctx) error { return sub.repair(ctx) }},
		{"rejoin", func(sub *substrate, ctx store.Ctx) error { return sub.rejoin(victim) }},
	}
	subs := map[string]*substrate{"sim": simSubstrate(t), "tcp": tcpSubstrate(t)}
	for _, s := range script {
		for name, sub := range subs {
			if err := sub.step(func(ctx store.Ctx) error { return s.do(sub, ctx) }); err != nil {
				t.Fatalf("%s: %s: %v", s.name, name, err)
			}
		}
		sim, tcp := subs["sim"].state(t), subs["tcp"].state(t)
		if !reflect.DeepEqual(sim, tcp) {
			t.Fatalf("after %s the substrates differ:\nsim %+v\ntcp %+v", s.name, sim, tcp)
		}
	}
}
