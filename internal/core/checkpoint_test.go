package core_test

import (
	"errors"
	"testing"

	"nvmalloc/internal/cluster"
	"nvmalloc/internal/core"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/sim"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/sysprof"
)

// A checkpoint that fails after creating its file leaves nothing under its
// name — no file on the store, no chunk in the cache — so a retry under the
// same name succeeds.
func TestCheckpointFailureLeavesNoFile(t *testing.T) {
	m, err := sim.NewMachine(simtime.NewEngine(), sysprof.Bench(),
		cluster.Config{Mode: cluster.LocalSSD, ProcsPerNode: 1, ComputeNodes: 2, Benefactors: 2}, manager.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	m.Eng.Go("rank", func(p *simtime.Proc) {
		c := m.NewClient(0)
		cc := c.ChunkCache()
		size := 2 * cc.Config().ChunkSize
		dram := make([]byte, cc.Config().ChunkSize+100) // a two-chunk DRAM dump
		for i := range dram {
			dram[i] = byte(i)
		}
		freed, err := c.Malloc(p, size, core.WithName("freed"))
		if err != nil {
			t.Error(err)
			return
		}
		if err := freed.Free(p); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Checkpoint(p, "ck", dram, freed); err == nil {
			t.Error("checkpoint of a freed region succeeded")
			return
		}
		if _, err := cc.Store().Lookup(p, "ck"); !errors.Is(err, proto.ErrNoSuchFile) {
			t.Errorf("after the failed checkpoint, lookup of its name: %v, want %v", err, proto.ErrNoSuchFile)
		}
		if n := cc.Resident(p, "ck"); n != 0 {
			t.Errorf("%d chunks of the failed checkpoint left in the cache", n)
		}

		live, err := c.Malloc(p, size, core.WithName("live"))
		if err != nil {
			t.Error(err)
			return
		}
		if err := live.WriteAt(p, 0, []byte("state")); err != nil {
			t.Error(err)
			return
		}
		info, err := c.Checkpoint(p, "ck", dram, live)
		if err != nil {
			t.Errorf("retry of the checkpoint: %v", err)
			return
		}
		back := make([]byte, len(dram))
		if err := c.ReadCheckpointDRAM(p, "ck", back); err != nil {
			t.Error(err)
			return
		}
		for i := range back {
			if back[i] != dram[i] {
				t.Errorf("DRAM dump byte %d = %d, want %d", i, back[i], dram[i])
				return
			}
		}
		if info.LinkedChunks != 2 {
			t.Errorf("retry linked %d chunks, want 2", info.LinkedChunks)
		}
	})
	m.Eng.Run()
}
