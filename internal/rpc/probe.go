package rpc

// The client-side canary prober: tiny synthetic operations that measure,
// from outside the serving path, what a user would experience — per
// manager shard (a full put/get/delete of a throwaway variable pinned to
// that shard's keyspace) and per benefactor (one chunk round trip whose
// expected answer is "no such chunk"). Outcomes land in the client Obs as
// probe.* counters and histograms; the probe-slo-burn rule turns them
// into a paging signal. Enabled by Options.ProbeInterval.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/shardmap"
)

// DefaultProbeBens is how many benefactors each probe cycle samples
// (round-robin across the live set) when Options.ProbeBens is zero.
const DefaultProbeBens = 2

// startProber launches the canary prober when the options enable it.
func (s *Store) startProber() {
	if s.opts.ProbeInterval <= 0 {
		return
	}
	s.prober = obs.StartProber(s.obs, obs.ProberConfig{
		Interval: s.opts.ProbeInterval,
		Targets:  s.probeTargets,
	})
}

// probeTargets assembles the current cycle's probe set: every manager
// shard, plus the next ProbeBens benefactors in round-robin order. Called
// once per cycle, so the set tracks shard-map growth and benefactor
// churn.
func (s *Store) probeTargets() []obs.ProbeTarget {
	n := s.nShards()
	k := s.opts.ProbeBens
	if k <= 0 {
		k = DefaultProbeBens
	}
	targets := make([]obs.ProbeTarget, 0, n+k)
	for i := 0; i < n; i++ {
		i := i
		targets = append(targets, obs.ProbeTarget{
			Name: fmt.Sprintf("shard%d", i),
			Run:  func() error { return s.probeShard(i) },
		})
	}

	s.mu.Lock()
	ids := make([]int, 0, len(s.benAddrs))
	for id := range s.benAddrs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Ints(ids)
	if len(ids) == 0 {
		return targets
	}
	if k > len(ids) {
		k = len(ids)
	}
	start := int(s.probeRR.Add(int64(k))-int64(k)) % len(ids)
	if start < 0 {
		start += len(ids)
	}
	for j := 0; j < k; j++ {
		id := ids[(start+j)%len(ids)]
		targets = append(targets, obs.ProbeTarget{
			Name: fmt.Sprintf("ben%d", id),
			Run:  func() error { return s.probeBen(id) },
		})
	}
	return targets
}

// probeName returns a canary variable name owned by shard i: names are
// placed by rendezvous hashing, so the prober appends a nonce until the
// hash lands on the target shard (a handful of tries in expectation).
// The per-store token keeps concurrent probers from colliding on the
// same canary variables.
func (s *Store) probeName(shard, n int) string {
	for k := 0; ; k++ {
		name := fmt.Sprintf("__probe/%s/%d-%d", s.probeToken, shard, k)
		if n <= 1 || shardmap.ShardFor(name, n) == shard {
			return name
		}
	}
}

// probePayload is the canary variable body: small enough to be free,
// big enough to exercise a real chunk write and readback.
func (s *Store) probePayload(shard int) []byte {
	return []byte(fmt.Sprintf("nvm-probe %s shard=%d padpadpadpadpadpadpadpadpadpadpad", s.probeToken, shard))
}

// probeShard runs one canary round trip through shard i's full serving
// path: metadata create on the shard, a chunk write to a benefactor, a
// readback with verification, and a delete. Any step failing fails the
// probe; cleanup is best-effort (a leaked canary is overwritten by the
// next cycle's create of the same name).
func (s *Store) probeShard(i int) error {
	name := s.probeName(i, s.nShards())
	want := s.probePayload(i)
	if err := s.Put(name, want); err != nil {
		_ = s.Delete(name)
		return fmt.Errorf("probe put: %w", err)
	}
	got, err := s.Get(name)
	if err != nil {
		_ = s.Delete(name)
		return fmt.Errorf("probe get: %w", err)
	}
	if !bytes.Equal(got, want) {
		_ = s.Delete(name)
		return fmt.Errorf("probe readback mismatch: got %d bytes, want %d", len(got), len(want))
	}
	if err := s.Delete(name); err != nil {
		return fmt.Errorf("probe delete: %w", err)
	}
	return nil
}

// probeBen runs one liveness round trip against benefactor id: a
// GetChunk for chunk ID 0, which is never minted (IDs start at 1), so a
// wire-delivered ErrNoSuchChunk proves the benefactor's full request
// loop — accept, decode, dispatch, encode — works. A single attempt, no
// retries: the prober measures, the data path's own retry policy heals.
func (s *Store) probeBen(id int) error {
	p, err := s.pool(proto.ChunkRef{Benefactor: id})
	if err != nil {
		return fmt.Errorf("probe ben%d: %w", id, err)
	}
	_, err = p.call(proto.ChunkReq{Op: proto.OpGetChunk, ID: 0})
	if err == nil || errors.Is(err, proto.ErrNoSuchChunk) {
		return nil
	}
	return fmt.Errorf("probe ben%d: %w", id, err)
}
