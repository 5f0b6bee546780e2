package simstore

import (
	"bytes"
	"testing"

	"nvmalloc/internal/cluster"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/simtime"
	"nvmalloc/internal/sysprof"
)

func replicatedStore(e *simtime.Engine, copies int) *Store {
	cl := cluster.New(e, sysprof.Bench())
	s := New(cl, 0, []int{0, 1, 2, 3}, 16*sysprof.MiB, manager.RoundRobin)
	s.Mgr.Replication = copies
	return s
}

func TestReplicatedWritesLandOnAllCopies(t *testing.T) {
	e := simtime.NewEngine()
	s := replicatedStore(e, 2)
	cs := s.Mgr.ChunkSize()
	e.Go("c", func(p *simtime.Proc) {
		c := s.Client(0)
		fi, err := c.Create(p, "v", cs)
		if err != nil {
			t.Error(err)
			return
		}
		copies := s.Mgr.Replicas(fi.Chunks[0].ID)
		if len(copies) != 2 {
			t.Errorf("copies = %v, want 2", copies)
			return
		}
		if copies[0].Benefactor == copies[1].Benefactor {
			t.Error("replicas must sit on distinct benefactors")
		}
		data := bytes.Repeat([]byte{0x66}, int(cs))
		if err := c.PutChunk(p, fi.Chunks[0:1], data); err != nil {
			t.Error(err)
			return
		}
		// Both benefactors hold the payload.
		for _, ref := range copies {
			got, err := s.Benefactor(ref.Benefactor).GetChunk(ref.ID)
			if err != nil || got[0] != 0x66 {
				t.Errorf("copy on b%d missing: %v", ref.Benefactor, err)
			}
		}
	})
	e.Run()
	if err := s.Mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverReadAfterPrimaryDeath(t *testing.T) {
	e := simtime.NewEngine()
	s := replicatedStore(e, 2)
	cs := s.Mgr.ChunkSize()
	e.Go("c", func(p *simtime.Proc) {
		c := s.Client(0)
		fi, _ := c.Create(p, "v", cs)
		payload := bytes.Repeat([]byte{0x31}, int(cs))
		if err := c.PutChunk(p, fi.Chunks[0:1], payload); err != nil {
			t.Error(err)
			return
		}
		s.Kill(fi.Chunks[0].Benefactor) // kill the primary
		got, err := c.GetChunk(p, fi.Chunks[0:1])
		if err != nil {
			t.Errorf("failover read failed: %v", err)
			return
		}
		if got[0] != 0x31 {
			t.Error("failover read returned wrong data")
		}
	})
	e.Run()
}

func TestRepairRestoresRedundancy(t *testing.T) {
	e := simtime.NewEngine()
	s := replicatedStore(e, 2)
	cs := s.Mgr.ChunkSize()
	e.Go("c", func(p *simtime.Proc) {
		c := s.Client(0)
		fi, _ := c.Create(p, "v", 4*cs)
		for _, ref := range fi.Chunks {
			if err := c.PutChunk(p, []proto.ChunkRef{ref}, bytes.Repeat([]byte{9}, int(cs))); err != nil {
				t.Error(err)
				return
			}
		}
		victim := fi.Chunks[0].Benefactor
		s.Kill(victim)
		repaired, lost, err := s.Repair(p)
		if err != nil {
			t.Error(err)
			return
		}
		if lost != 0 {
			t.Errorf("%d chunks lost despite replication", lost)
		}
		if repaired == 0 {
			t.Error("nothing repaired")
		}
		// Every chunk again has two live copies.
		for _, ref := range fi.Chunks {
			liveCount := 0
			for _, cp := range s.Mgr.Replicas(ref.ID) {
				if s.Mgr.Alive(cp.Benefactor) {
					liveCount++
					got, err := s.Benefactor(cp.Benefactor).GetChunk(cp.ID)
					if err != nil || got[0] != 9 {
						t.Errorf("repaired copy on b%d bad: %v", cp.Benefactor, err)
					}
				}
			}
			if liveCount < 2 {
				t.Errorf("chunk %v has %d live copies after repair", ref, liveCount)
			}
		}
	})
	e.Run()
}

func TestUnreplicatedChunkIsLostOnDeath(t *testing.T) {
	e := simtime.NewEngine()
	s := replicatedStore(e, 1) // paper baseline: no redundancy
	cs := s.Mgr.ChunkSize()
	e.Go("c", func(p *simtime.Proc) {
		c := s.Client(0)
		fi, _ := c.Create(p, "v", cs)
		c.PutChunk(p, fi.Chunks[0:1], make([]byte, cs))
		s.Kill(fi.Chunks[0].Benefactor)
		_, lost, err := s.Repair(p)
		if err != nil {
			t.Error(err)
			return
		}
		if lost != 1 {
			t.Errorf("lost = %d, want 1 (no replicas to recover from)", lost)
		}
	})
	e.Run()
}

func TestReplicationCostsWriteTime(t *testing.T) {
	run := func(copies int) simtime.Time {
		e := simtime.NewEngine()
		s := replicatedStore(e, copies)
		cs := s.Mgr.ChunkSize()
		e.Go("c", func(p *simtime.Proc) {
			c := s.Client(0)
			fi, _ := c.Create(p, "v", 8*cs)
			for _, ref := range fi.Chunks {
				c.PutChunk(p, []proto.ChunkRef{ref}, make([]byte, cs))
			}
		})
		e.Run()
		return e.Now()
	}
	if one, two := run(1), run(2); two <= one {
		t.Fatalf("replicated writes (%v) must cost more than single copies (%v)", two, one)
	}
}

func TestDeleteFreesReplicasToo(t *testing.T) {
	e := simtime.NewEngine()
	s := replicatedStore(e, 2)
	cs := s.Mgr.ChunkSize()
	e.Go("c", func(p *simtime.Proc) {
		c := s.Client(0)
		fi, _ := c.Create(p, "v", 4*cs)
		for _, ref := range fi.Chunks {
			c.PutChunk(p, []proto.ChunkRef{ref}, make([]byte, cs))
		}
		if err := c.Delete(p, "v"); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	for _, id := range s.Benefactors() {
		if u := s.Benefactor(id).Used(); u != 0 {
			t.Fatalf("benefactor %d still holds %d bytes after delete", id, u)
		}
	}
	if _, err := s.Mgr.LiveRef(proto.ChunkID(1)); err != proto.ErrNoSuchChunk {
		t.Fatalf("chunk metadata survived delete: %v", err)
	}
}

// TestReviveFencesStaleReplica: a benefactor revived after missing a write
// must not serve its stale copy. Revive re-registers it, the manager fences
// the copy the survivor wrote around, and the revived benefactor deletes
// that payload, so the next lookup and read land on the fresh data.
func TestReviveFencesStaleReplica(t *testing.T) {
	e := simtime.NewEngine()
	s := replicatedStore(e, 2)
	cs := s.Mgr.ChunkSize()
	var got []byte
	var primary int
	e.Go("c", func(p *simtime.Proc) {
		c := s.Client(0)
		fi, err := c.Create(p, "v", cs)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.PutChunk(p, fi.Chunks[:1], bytes.Repeat([]byte{1}, int(cs))); err != nil {
			t.Error(err)
			return
		}
		primary = fi.Chunks[0].Benefactor
		s.Kill(primary)
		if err := c.PutChunk(p, fi.Chunks[:1], bytes.Repeat([]byte{2}, int(cs))); err != nil {
			t.Error(err)
			return
		}
		s.Revive(primary)
		if fi, err = c.Lookup(p, "v"); err != nil {
			t.Error(err)
			return
		}
		if got, err = c.GetChunk(p, fi.Replicas[0]); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if t.Failed() {
		t.FailNow()
	}
	if got[0] != 2 {
		t.Fatalf("read after revive: got %d, want 2", got[0])
	}
	if u := s.Benefactor(primary).Used(); u != 0 {
		t.Errorf("revived benefactor still holds %d bytes of fenced copies", u)
	}
	if err := s.Mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
