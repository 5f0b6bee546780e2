// Package manager implements the metadata service of the aggregate NVM
// store: benefactor registration and liveness monitoring, space
// allocation, striping of logical files into fixed-size chunks, the
// chunk→benefactor map, and refcounted chunk sharing, which is what lets
// ssdcheckpoint() link a variable's chunks into a checkpoint file without
// copying them and what makes post-checkpoint writes copy-on-write
// (paper §III-E).
//
// The Manager is pure, transport-agnostic logic that does no I/O. Both
// transports — the simulated one (internal/simstore) and the TCP one
// (internal/rpc) — drive it through Apply: they run the returned Effects
// (payload copies, chunk deletes) with their lock released and report the
// copies' outcome back through Commit.
package manager

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"nvmalloc/internal/proto"
)

// PlacementPolicy selects benefactors for new chunks.
type PlacementPolicy int

const (
	// RoundRobin stripes chunks across benefactors in registration order —
	// the paper's striping scheme.
	RoundRobin PlacementPolicy = iota
	// LeastLoaded places each chunk on the benefactor with the most free
	// space.
	LeastLoaded
	// WearAware places each chunk on the benefactor with the lowest
	// cumulative write volume, spreading device wear (paper design goal
	// §III-A "optimizing NVM performance and lifetime").
	WearAware
)

func (p PlacementPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case WearAware:
		return "wear-aware"
	}
	return "?"
}

// benefactor is the manager's record of one space contributor.
type benefactor struct {
	info     proto.BenefactorInfo
	lastBeat time.Duration // virtual or wall time, supplied by the caller
}

// file is a logical striped file.
type file struct {
	name   string
	size   int64
	chunks []proto.ChunkRef
	// expiresAt is the variable's lifetime deadline (§III-C: persistent
	// variables can carry a lifetime so workflow data is reclaimed
	// automatically); zero means no expiry.
	expiresAt time.Duration
}

// chunkMeta tracks a physical chunk.
type chunkMeta struct {
	ref  proto.ChunkRef
	refs int // local file references + remote holds + pins
	// remote is how many of refs are holds taken by other shards' files
	// (OpRetainRefs). The chunk survives local deletion until every remote
	// hold is released.
	remote int
	// pins is how many of refs are holds taken by in-flight copy-on-write
	// remaps (RemapBegin): one on the shared chunk being copied from, so
	// its payload outlives a racing delete, and one on the fresh chunk
	// until commit publishes it in the file table. A chunk whose refs are
	// all pins is unpublished: no file shows it yet.
	pins int
	// replicas are additional copies on other benefactors (fault-
	// tolerance extension; the primary is ref).
	replicas []proto.ChunkRef
	// reserved are repair destinations whose payload copy is in flight:
	// their space is counted, but no reader sees them until commitRepair
	// publishes them as replicas.
	reserved []proto.ChunkRef
}

// foreignMeta tracks a chunk owned by another shard but referenced by
// files on this shard (cross-shard Link/Derive). The owning shard holds
// the authoritative refcount; refs here counts local file references, each
// matched by one remote hold the client retained at the owner.
type foreignMeta struct {
	refs int
	// replicas is the chunk's copy set at link time, primary first, so
	// lookups on this shard still ship failover refs for foreign chunks.
	replicas []proto.ChunkRef
}

// Manager is the aggregate store's metadata service.
type Manager struct {
	chunkSize int64
	policy    PlacementPolicy
	// HeartbeatTimeout is how stale a benefactor's heartbeat may be before
	// Sweep declares it dead.
	HeartbeatTimeout time.Duration
	// Replication is how many copies of each chunk the store keeps (1 =
	// no redundancy, the paper's baseline). Extra copies land on distinct
	// benefactors; reads fail over and Repair restores redundancy after a
	// benefactor death. This implements the fault-tolerance direction the
	// paper leaves open.
	Replication int

	// Shard identity (§16): this manager owns the variable names that
	// shardmap.ShardFor routes to shardIndex, and mints chunk IDs congruent
	// to shardIndex+1 modulo shardCount so ownership of any chunk is
	// computable from its ID alone. shardCount <= 1 is the unsharded plane.
	shardIndex int
	shardCount int
	// epoch is the shard's membership epoch: it starts at 1 and bumps on
	// every benefactor registration, death, or fenced rejoin. Requests
	// stamped with an older epoch are fenced by Apply.
	epoch int64

	nextChunk proto.ChunkID
	files     map[string]*file
	bens      map[int]*benefactor
	benOrder  []int // registration order, for deterministic round-robin
	rr        int
	chunks    map[proto.ChunkID]*chunkMeta
	foreign   map[proto.ChunkID]*foreignMeta
}

// New returns a manager striping files into chunkSize chunks.
func New(chunkSize int64, policy PlacementPolicy) *Manager {
	if chunkSize <= 0 {
		panic("manager: nonpositive chunk size")
	}
	return &Manager{
		chunkSize:        chunkSize,
		policy:           policy,
		HeartbeatTimeout: 5 * time.Second,
		Replication:      1,
		epoch:            1,
		files:            make(map[string]*file),
		bens:             make(map[int]*benefactor),
		chunks:           make(map[proto.ChunkID]*chunkMeta),
		foreign:          make(map[proto.ChunkID]*foreignMeta),
	}
}

// ChunkSize returns the striping unit.
func (m *Manager) ChunkSize() int64 { return m.chunkSize }

// SetShard assigns this manager its position in an n-shard metadata plane.
// It must be called before any chunk is allocated: chunk IDs are strided by
// shard so ownership stays computable from the ID.
func (m *Manager) SetShard(index, count int) {
	if count > 1 && (index < 0 || index >= count) {
		panic(fmt.Sprintf("manager: shard %d/%d out of range", index, count))
	}
	if m.nextChunk != 0 || len(m.chunks) > 0 {
		panic("manager: SetShard after chunk allocation")
	}
	m.shardIndex, m.shardCount = index, count
}

// Shard returns this manager's shard index and the shard count (0, 1 when
// unsharded).
func (m *Manager) Shard() (index, count int) { return m.shardIndex, m.shardCount }

// Epoch returns the shard's membership epoch. It starts at 1 and only
// increases, so a zero epoch (unstamped: first contact, benefactor and admin
// traffic) is never fenced.
func (m *Manager) Epoch() int64 { return m.epoch }

// Owner returns the shard index that minted (and therefore owns) a chunk
// ID. Shard i allocates IDs congruent to i+1 modulo the shard count.
func (m *Manager) Owner(id proto.ChunkID) int {
	if m.shardCount <= 1 {
		return 0
	}
	return int((id - 1) % proto.ChunkID(m.shardCount))
}

// Owns reports whether this shard owns a chunk ID.
func (m *Manager) Owns(id proto.ChunkID) bool {
	return m.shardCount <= 1 || m.Owner(id) == m.shardIndex
}

// allocID mints the next chunk ID this shard owns: shard i of n produces
// i+1, i+1+n, i+1+2n, ... (the unsharded plane keeps the historical
// 1, 2, 3, ...), so IDs never collide across shards.
func (m *Manager) allocID() proto.ChunkID {
	if m.nextChunk == 0 {
		m.nextChunk = proto.ChunkID(m.shardIndex) + 1
		return m.nextChunk
	}
	stride := proto.ChunkID(1)
	if m.shardCount > 1 {
		stride = proto.ChunkID(m.shardCount)
	}
	m.nextChunk += stride
	return m.nextChunk
}

// Register adds (or re-registers) a benefactor and bumps the membership
// epoch. It reports whether the benefactor was previously known and dead —
// the rejoin case Apply fences (FenceRejoin) before the rejoiner serves
// reads. Re-registration preserves the manager-side
// accounting (Used, and WriteVolume unless the caller reports a fresher
// value): the benefactor does not know what the manager reserved on it.
func (m *Manager) Register(info proto.BenefactorInfo, addr string, now time.Duration) (wasDead bool) {
	if old, ok := m.bens[info.ID]; ok {
		wasDead = !old.info.Alive
		info.Used = old.info.Used
		if info.WriteVolume == 0 {
			info.WriteVolume = old.info.WriteVolume
		}
	} else {
		m.benOrder = append(m.benOrder, info.ID)
	}
	info.Alive = true
	info.Addr = addr
	m.bens[info.ID] = &benefactor{info: info, lastBeat: now}
	m.epoch++
	return wasDead
}

// Addr returns the registered transport address of a benefactor (TCP mode;
// "" when it never registered).
func (m *Manager) Addr(benID int) string {
	if b, ok := m.bens[benID]; ok {
		return b.info.Addr
	}
	return ""
}

// Heartbeat refreshes a benefactor's liveness and wear counter. A
// benefactor the manager has declared dead cannot heartbeat itself back to
// life: its pre-partition replica claims must first be fenced through
// re-registration (§9/§16), so the beat is rejected with
// ErrBenefactorDead and the benefactor re-registers.
func (m *Manager) Heartbeat(benID int, writeVolume int64, now time.Duration) error {
	b, ok := m.bens[benID]
	if !ok || !b.info.Alive {
		return proto.ErrBenefactorDead
	}
	b.lastBeat = now
	b.info.WriteVolume = writeVolume
	return nil
}

// Sweep marks benefactors with stale heartbeats dead and returns their IDs.
// Any death is a membership change, so it bumps the epoch.
func (m *Manager) Sweep(now time.Duration) []int {
	var died []int
	for _, id := range m.benOrder {
		b := m.bens[id]
		if b.info.Alive && now-b.lastBeat > m.HeartbeatTimeout {
			b.info.Alive = false
			died = append(died, id)
		}
	}
	if len(died) > 0 {
		m.epoch++
	}
	return died
}

// MarkDead forcibly declares a benefactor dead (failure injection).
func (m *Manager) MarkDead(benID int) {
	if b, ok := m.bens[benID]; ok && b.info.Alive {
		b.info.Alive = false
		m.epoch++
	}
}

// FenceRejoin invalidates a rejoining benefactor's pre-partition replica
// claims (closing the DESIGN.md §9 hole): every chunk copy it holds that
// has at least one other LIVE copy is dropped from the metadata — the
// survivors may have taken writes the rejoiner missed, so its stale copy
// must never satisfy a read again. Copies that are the chunk's only one
// are kept (replication=1 stores would otherwise lose data that was merely
// partitioned, not diverged). When a dropped copy was the primary, a live
// survivor is promoted and every file entry referencing the old primary is
// rewritten. Returns the dropped refs, sorted: the rejoiner deletes those
// payloads before it serves reads.
func (m *Manager) FenceRejoin(benID int) []proto.ChunkRef {
	var dropped []proto.ChunkRef
	rewrite := make(map[proto.ChunkRef]proto.ChunkRef)
	for id, cm := range m.chunks {
		holds := cm.ref.Benefactor == benID
		var liveOthers []proto.ChunkRef
		if !holds && m.Alive(cm.ref.Benefactor) {
			liveOthers = append(liveOthers, cm.ref)
		}
		for _, r := range cm.replicas {
			if r.Benefactor == benID {
				holds = true
			} else if m.Alive(r.Benefactor) {
				liveOthers = append(liveOthers, r)
			}
		}
		if !holds || len(liveOthers) == 0 {
			continue
		}
		if cm.ref.Benefactor == benID {
			// Promote the first live survivor to primary.
			rewrite[cm.ref] = liveOthers[0]
			cm.ref = liveOthers[0]
		}
		cm.replicas = slices.DeleteFunc(cm.replicas, func(r proto.ChunkRef) bool {
			return r == cm.ref || r.Benefactor == benID
		})
		stale := proto.ChunkRef{Benefactor: benID, ID: id}
		m.unreserve(stale)
		dropped = append(dropped, stale)
	}
	if len(rewrite) > 0 {
		for _, f := range m.files {
			for i, r := range f.chunks {
				if next, ok := rewrite[r]; ok {
					f.chunks[i] = next
				}
			}
		}
	}
	if len(dropped) > 0 {
		m.epoch++
		sort.Slice(dropped, func(i, j int) bool { return dropped[i].ID < dropped[j].ID })
	}
	return dropped
}

// Alive reports whether a benefactor is currently considered alive.
func (m *Manager) Alive(benID int) bool {
	b, ok := m.bens[benID]
	return ok && b.info.Alive
}

// BeatAge returns how stale a benefactor's last heartbeat is at now
// (observability: operators watch ages approach the timeout before a
// death sweep fires).
func (m *Manager) BeatAge(benID int, now time.Duration) (time.Duration, bool) {
	b, ok := m.bens[benID]
	if !ok {
		return 0, false
	}
	age := now - b.lastBeat
	if age < 0 {
		age = 0
	}
	return age, true
}

// Status returns the benefactor table sorted by ID.
func (m *Manager) Status() []proto.BenefactorInfo {
	out := make([]proto.BenefactorInfo, 0, len(m.bens))
	for _, id := range m.benOrder {
		out = append(out, m.bens[id].info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// pick selects a benefactor for a new chunk according to the policy,
// skipping benefactors in the exclude set (replica spreading).
func (m *Manager) pick(exclude map[int]bool) (*benefactor, error) {
	if len(m.benOrder) == 0 {
		return nil, proto.ErrNoBenefactors
	}
	candidate := func(b *benefactor) bool {
		return b.info.Alive && !exclude[b.info.ID] && b.info.Used+m.chunkSize <= b.info.Capacity
	}
	switch m.policy {
	case RoundRobin:
		for i := 0; i < len(m.benOrder); i++ {
			b := m.bens[m.benOrder[m.rr%len(m.benOrder)]]
			m.rr++
			if candidate(b) {
				return b, nil
			}
		}
	case LeastLoaded:
		var best *benefactor
		for _, id := range m.benOrder {
			b := m.bens[id]
			if !candidate(b) {
				continue
			}
			if best == nil || b.info.Capacity-b.info.Used > best.info.Capacity-best.info.Used {
				best = b
			}
		}
		if best != nil {
			return best, nil
		}
	case WearAware:
		var best *benefactor
		for _, id := range m.benOrder {
			b := m.bens[id]
			if !candidate(b) {
				continue
			}
			if best == nil || b.info.WriteVolume < best.info.WriteVolume {
				best = b
			}
		}
		if best != nil {
			return best, nil
		}
	}
	return nil, proto.ErrNoSpace
}

// allocChunk reserves one new chunk (plus replicas on distinct
// benefactors when Replication > 1) and returns the primary ref.
func (m *Manager) allocChunk() (proto.ChunkRef, error) {
	b, err := m.pick(nil)
	if err != nil {
		return proto.ChunkRef{}, err
	}
	return m.allocOn(b), nil
}

// allocChunkAt allocates a chunk preferring a specific benefactor (so a
// copy-on-write payload can be copied server-side), falling back to policy
// placement when it is full or dead.
func (m *Manager) allocChunkAt(prefer int) (proto.ChunkRef, error) {
	if b := m.bens[prefer]; b != nil && b.info.Alive && b.info.Used+m.chunkSize <= b.info.Capacity {
		return m.allocOn(b), nil
	}
	return m.allocChunk()
}

// allocOn reserves a new chunk with b as its primary, plus its replicas.
func (m *Manager) allocOn(b *benefactor) proto.ChunkRef {
	ref := proto.ChunkRef{Benefactor: b.info.ID, ID: m.allocID()}
	b.info.Used += m.chunkSize
	cm := &chunkMeta{ref: ref, refs: 1}
	m.chunks[ref.ID] = cm
	m.replicate(cm)
	return ref
}

// replicate tops a chunk up to the configured copy count, best effort
// (fewer live benefactors than copies is a degradation, not an error).
func (m *Manager) replicate(cm *chunkMeta) {
	for len(cm.replicas)+1 < m.Replication {
		exclude := map[int]bool{cm.ref.Benefactor: true}
		for _, r := range cm.replicas {
			exclude[r.Benefactor] = true
		}
		b, err := m.pick(exclude)
		if err != nil {
			return
		}
		b.info.Used += m.chunkSize
		cm.replicas = append(cm.replicas, proto.ChunkRef{Benefactor: b.info.ID, ID: cm.ref.ID})
	}
}

// releaseChunk decrements a chunk's refcount; when it reaches zero all its
// copies' space is released and their refs are returned so the caller can
// tell the benefactors to delete the payloads.
func (m *Manager) releaseChunk(id proto.ChunkID) ([]proto.ChunkRef, bool) {
	cm, ok := m.chunks[id]
	if !ok {
		panic(fmt.Sprintf("manager: releasing unknown chunk %d", id))
	}
	cm.refs--
	if cm.refs > 0 {
		return nil, false
	}
	delete(m.chunks, id)
	freed := append([]proto.ChunkRef{cm.ref}, cm.replicas...)
	// A reserved repair destination gives its space back here too; its
	// copy is still in flight, so commitRepair frees it once it lands.
	for _, ref := range append(freed, cm.reserved...) {
		m.unreserve(ref)
	}
	return freed, true
}

// unreserve gives one chunk copy's space back to its benefactor.
func (m *Manager) unreserve(ref proto.ChunkRef) {
	if b, ok := m.bens[ref.Benefactor]; ok {
		b.info.Used -= m.chunkSize
	}
}

// Replicas returns every copy of a chunk (primary first). For a chunk
// owned by another shard it returns the copy set recorded at link time, so
// lookups still ship failover refs for foreign chunks.
func (m *Manager) Replicas(id proto.ChunkID) []proto.ChunkRef {
	if cm, ok := m.chunks[id]; ok {
		return append([]proto.ChunkRef{cm.ref}, cm.replicas...)
	}
	if fm, ok := m.foreign[id]; ok {
		return append([]proto.ChunkRef(nil), fm.replicas...)
	}
	return nil
}

// LiveRef resolves a chunk to a copy on a live benefactor (failover
// reads). Foreign chunks resolve through their link-time copy set — the
// benefactors register with every shard, so liveness is known here too.
func (m *Manager) LiveRef(id proto.ChunkID) (proto.ChunkRef, error) {
	refs := m.Replicas(id)
	if refs == nil {
		return proto.ChunkRef{}, proto.ErrNoSuchChunk
	}
	for _, ref := range refs {
		if m.Alive(ref.Benefactor) {
			return ref, nil
		}
	}
	return proto.ChunkRef{}, proto.ErrBenefactorDead
}

// UnderReplicated returns (sorted) the chunks whose live copy count is
// below the configured replication factor — the repair backlog after
// benefactor deaths.
func (m *Manager) UnderReplicated() []proto.ChunkID {
	var out []proto.ChunkID
	for id, cm := range m.chunks {
		live := 0
		for _, ref := range append([]proto.ChunkRef{cm.ref}, cm.replicas...) {
			if m.Alive(ref.Benefactor) {
				live++
			}
		}
		if live < m.Replication {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UnderReplicatedCount returns the size of the repair backlog without
// materializing the sorted ID list — the monitoring refresh path calls it
// on every sweep tick, so it must not allocate per chunk.
func (m *Manager) UnderReplicatedCount() int {
	n := 0
	for _, cm := range m.chunks {
		live := 0
		if m.Alive(cm.ref.Benefactor) {
			live++
		}
		for _, ref := range cm.replicas {
			if m.Alive(ref.Benefactor) {
				live++
			}
		}
		if live < m.Replication {
			n++
		}
	}
	return n
}

// CapacitySummary totals the live benefactors' occupancy — the cluster's
// remaining headroom, exported as manager gauges for the monitoring
// layer.
func (m *Manager) CapacitySummary() (used, capacity int64) {
	for _, b := range m.bens {
		if !b.info.Alive {
			continue
		}
		used += b.info.Used
		capacity += b.info.Capacity
	}
	return used, capacity
}

// repair plans the restoration of the configured replica count after
// benefactor deaths: for every chunk short of live copies it reserves
// replacements on live benefactors and returns one copy per chunk, from a
// live copy onto its reservations. A reservation counts against its
// benefactor's space but stays invisible to Replicas, Lookup and LiveRef
// until commitRepair publishes it. Chunks with no live copy are returned
// in lost.
func (m *Manager) repair() (copies []Copy, lost []proto.ChunkID) {
	ids := make([]proto.ChunkID, 0, len(m.chunks))
	for id := range m.chunks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		cm := m.chunks[id]
		if cm.refs == cm.pins {
			continue // unpublished remap target: its payload is still being copied
		}
		var live []proto.ChunkRef
		exclude := make(map[int]bool)
		for _, ref := range append([]proto.ChunkRef{cm.ref}, cm.replicas...) {
			exclude[ref.Benefactor] = true
			if m.Alive(ref.Benefactor) {
				live = append(live, ref)
			}
		}
		if len(live) == 0 {
			lost = append(lost, id)
			continue
		}
		for _, ref := range cm.reserved {
			exclude[ref.Benefactor] = true // an earlier pass's copy is in flight
		}
		cp := Copy{Src: live[0]}
		for n := len(live) + len(cm.reserved); n < m.Replication; n++ {
			b, err := m.pick(exclude)
			if err != nil {
				break
			}
			b.info.Used += m.chunkSize
			dst := proto.ChunkRef{Benefactor: b.info.ID, ID: id}
			cm.reserved = append(cm.reserved, dst)
			exclude[b.info.ID] = true
			cp.Dsts = append(cp.Dsts, dst)
		}
		if len(cp.Dsts) > 0 {
			copies = append(copies, cp)
		}
	}
	return copies, lost
}

// commitRepair settles repair's copies: errs holds one error per
// destination (nil = copied). A copied destination becomes a replica; a
// failed one gives its reservation back. A destination whose chunk was
// freed mid-copy already gave its space back (releaseChunk); if its copy
// landed, the payload is returned for deletion.
func (m *Manager) commitRepair(resp *proto.ManagerResp, copies []Copy, errs [][]error) (freed []proto.ChunkRef) {
	for i, cp := range copies {
		for j, dst := range cp.Dsts {
			copied := errs[i][j] == nil
			if copied {
				resp.Repaired++
			} else {
				resp.RepairFailed++
			}
			cm, ok := m.chunks[dst.ID]
			if !ok {
				if copied {
					freed = append(freed, dst)
				}
				continue
			}
			cm.reserved = slices.DeleteFunc(cm.reserved, func(r proto.ChunkRef) bool { return r == dst })
			if copied {
				cm.replicas = append(cm.replicas, dst)
			} else {
				m.unreserve(dst)
			}
		}
	}
	return freed
}

// Create reserves a file of the given size: space is allocated (the
// posix_fallocate analog of paper §III-C) but no data moves until clients
// write chunks.
func (m *Manager) Create(name string, size int64) (proto.FileInfo, error) {
	if _, ok := m.files[name]; ok {
		return proto.FileInfo{}, proto.ErrFileExists
	}
	if size < 0 {
		return proto.FileInfo{}, fmt.Errorf("manager: negative size for %q", name)
	}
	n := int((size + m.chunkSize - 1) / m.chunkSize)
	f := &file{name: name, size: size}
	for i := 0; i < n; i++ {
		ref, err := m.allocChunk()
		if err != nil {
			// Roll back the partial allocation.
			for _, r := range f.chunks {
				m.releaseChunk(r.ID)
			}
			return proto.FileInfo{}, err
		}
		f.chunks = append(f.chunks, ref)
	}
	m.files[name] = f
	return m.info(f), nil
}

func (m *Manager) info(f *file) proto.FileInfo {
	fi := proto.FileInfo{Name: f.name, Size: f.size, Chunks: append([]proto.ChunkRef(nil), f.chunks...)}
	// Ship the full copy set of every chunk so clients can fail reads over
	// to a replica and write all copies without another manager round trip.
	fi.Replicas = make([][]proto.ChunkRef, len(f.chunks))
	for i, r := range f.chunks {
		fi.Replicas[i] = m.Replicas(r.ID)
	}
	return fi
}

// Lookup returns the file's chunk map.
func (m *Manager) Lookup(name string) (proto.FileInfo, error) {
	f, ok := m.files[name]
	if !ok {
		return proto.FileInfo{}, proto.ErrNoSuchFile
	}
	return m.info(f), nil
}

// Delete removes a file and returns the chunks whose payloads should be
// physically deleted (refcount reached zero). Chunks still referenced by
// other files — e.g. a checkpoint that linked them — survive.
func (m *Manager) Delete(name string) ([]proto.ChunkRef, error) {
	freed, _, err := m.DeleteFull(name)
	return freed, err
}

// DeleteFull is Delete plus the cross-shard accounting: foreignFreed lists
// references to chunks owned by OTHER shards that this file held; the
// caller must release them at the owning shards (OpReleaseRefs).
func (m *Manager) DeleteFull(name string) (freed, foreignFreed []proto.ChunkRef, err error) {
	f, ok := m.files[name]
	if !ok {
		return nil, nil, proto.ErrNoSuchFile
	}
	for _, r := range f.chunks {
		if !m.Owns(r.ID) {
			m.dropForeign(r)
			foreignFreed = append(foreignFreed, r)
			continue
		}
		if refs, gone := m.releaseChunk(r.ID); gone {
			freed = append(freed, refs...)
		}
	}
	delete(m.files, name)
	return freed, foreignFreed, nil
}

// dropForeign releases one local file reference to a foreign chunk.
func (m *Manager) dropForeign(r proto.ChunkRef) {
	if fm, ok := m.foreign[r.ID]; ok {
		fm.refs--
		if fm.refs <= 0 {
			delete(m.foreign, r.ID)
		}
	}
}

// SetTTL gives a file a lifetime deadline; ExpireSweep reclaims it once
// the deadline passes. A zero deadline clears the lifetime.
func (m *Manager) SetTTL(name string, expiresAt time.Duration) error {
	f, ok := m.files[name]
	if !ok {
		return proto.ErrNoSuchFile
	}
	f.expiresAt = expiresAt
	return nil
}

// ExpireSweep deletes every file whose lifetime has passed, returning the
// expired names, the physically freed chunks, and the foreign references
// the expired files held (to be released at their owning shards).
func (m *Manager) ExpireSweep(now time.Duration) (expired []string, freed, foreignFreed []proto.ChunkRef) {
	for n, f := range m.files {
		if f.expiresAt != 0 && now > f.expiresAt {
			expired = append(expired, n)
		}
	}
	sort.Strings(expired)
	for _, n := range expired {
		fr, ff, _ := m.DeleteFull(n) // n is in the file table
		freed = append(freed, fr...)
		foreignFreed = append(foreignFreed, ff...)
	}
	return expired, freed, foreignFreed
}

// Link appends the chunks of each part file to dst, incrementing their
// refcounts — the zero-copy merge that ssdcheckpoint() uses to include
// NVM-resident variables in a checkpoint file (paper §III-E). A sharded
// manager refuses it: foreign chunks need holds at their owners, which only
// the client's OpLinkRefs protocol takes.
func (m *Manager) Link(dst string, parts []string) (proto.FileInfo, error) {
	if err := m.unsharded("link"); err != nil {
		return proto.FileInfo{}, err
	}
	if _, ok := m.files[dst]; !ok {
		return proto.FileInfo{}, proto.ErrNoSuchFile
	}
	infos := make([]proto.FileInfo, len(parts))
	for i, pn := range parts {
		p, ok := m.files[pn]
		if !ok {
			return proto.FileInfo{}, fmt.Errorf("%w: link part %q", proto.ErrNoSuchFile, pn)
		}
		// Unsharded, every chunk is owned: LinkRefs needs no replica sets.
		infos[i] = proto.FileInfo{Size: p.size, Chunks: p.chunks}
	}
	refs, replicas, size := LayoutParts(infos, m.chunkSize)
	return m.LinkRefs(dst, refs, replicas, size, false)
}

// Derive creates a new file sharing a chunk sub-range of src (refcounted,
// copy-on-write from there): checkpoint restore without data movement. A
// sharded manager refuses it, as it does Link.
func (m *Manager) Derive(name, src string, fromChunk, nChunks int, size int64) (proto.FileInfo, error) {
	if err := m.unsharded("derive"); err != nil {
		return proto.FileInfo{}, err
	}
	if _, ok := m.files[name]; ok {
		return proto.FileInfo{}, proto.ErrFileExists
	}
	ex, err := m.ExportRange(src, fromChunk, nChunks)
	if err != nil {
		return proto.FileInfo{}, err
	}
	return m.LinkRefs(name, ex.Chunks, ex.Replicas, size, true)
}

func (m *Manager) unsharded(op string) error {
	if m.shardCount > 1 {
		return fmt.Errorf("manager: %s on shard %d of %d: a sharded plane links through OpLinkRefs", op, m.shardIndex, m.shardCount)
	}
	return nil
}

// LayoutParts lays part files end to end for a link: each part starts at a
// chunk boundary, size is the byte end of the last non-empty part from the
// run's first chunk (0 if all are empty), and a part with no replica table
// gets nil sets, which LinkRefs reads as the primary alone.
func LayoutParts(parts []proto.FileInfo, chunkSize int64) (refs []proto.ChunkRef, replicas [][]proto.ChunkRef, size int64) {
	for _, p := range parts {
		if p.Size > 0 {
			size = int64(len(refs))*chunkSize + p.Size
		}
		refs = append(refs, p.Chunks...)
		replicas = append(replicas, p.Replicas...)
		replicas = append(replicas, make([][]proto.ChunkRef, len(refs)-len(replicas))...)
	}
	return refs, replicas, size
}

// ErrRemapRaced reports that the file's chunk changed between RemapBegin
// and RemapCommit (another client's remap won, a rejoin fence promoted a
// replica, or the file was deleted and recreated). The remap was rolled
// back; a fresh RemapBegin sees the new state.
var ErrRemapRaced = errors.New("manager: chunk changed under an in-flight remap")

// PendingRemap is an in-flight copy-on-write remap between RemapBegin and
// RemapCommit/RemapAbort.
type PendingRemap struct {
	Name     string
	ChunkIdx int
	// Old is the chunk the file references.
	Old proto.ChunkRef
	// Fresh is the reserved, still unpublished copy set (primary first)
	// the caller must fill with Old's payload before committing. Empty
	// when Old is unshared.
	Fresh []proto.ChunkRef
}

// Shared reports whether Old was shared and a remap is in flight. When it
// is not, the caller writes in place and there is nothing to commit.
func (t PendingRemap) Shared() bool { return len(t.Fresh) > 0 }

// RemapBegin is the first phase of a copy-on-write remap (DESIGN.md §9). For
// a shared chunk it reserves a fresh chunk — preferring the old one's
// benefactor so the payload can be copied server-side — WITHOUT publishing
// it in the file table, and pins the old chunk so its payload outlives any
// racing delete. No lookup, export, link or derive can observe the fresh
// chunk until RemapCommit, so the caller may copy the payload with the
// manager unlocked. Pins count as references: a second client that begins
// on the same chunk sees it shared and races to commit, never writes in
// place under the first client's copy.
//
// A foreign chunk (owned by another shard) is always treated as shared: its
// owner's refcount is not visible here, and cross-shard references exist
// precisely because the chunk is shared. It cannot be pinned from this
// shard; the file's own foreign reference is what holds it, and the commit
// re-check covers the file vanishing.
func (m *Manager) RemapBegin(name string, chunkIdx int) (PendingRemap, error) {
	f, ok := m.files[name]
	if !ok {
		return PendingRemap{}, proto.ErrNoSuchFile
	}
	if chunkIdx < 0 || chunkIdx >= len(f.chunks) {
		return PendingRemap{}, proto.ErrChunkOutOfRange
	}
	t := PendingRemap{Name: name, ChunkIdx: chunkIdx, Old: f.chunks[chunkIdx]}
	owned := m.Owns(t.Old.ID)
	if owned && m.chunks[t.Old.ID].refs == 1 {
		return t, nil
	}
	fresh, err := m.allocChunkAt(t.Old.Benefactor)
	if err != nil {
		return t, err
	}
	m.chunks[fresh.ID].pins = 1 // the allocation's single ref is the remap's hold
	if owned {
		cm := m.chunks[t.Old.ID]
		cm.refs++
		cm.pins++
	}
	t.Fresh = m.Replicas(fresh.ID)
	return t, nil
}

// RemapCommit is the second phase: copied lists the fresh copies that now
// hold the old payload. If the file still references t.Old at t.ChunkIdx
// and the fresh primary was copied, the fresh chunk is published there —
// replicas that were not copied are dropped, so no reader can fail over
// onto an unpopulated copy — and the pin and the file's reference on the
// old chunk are released. Otherwise the remap is rolled back (RemapAbort)
// and ErrRemapRaced (or ErrNoSuchFile) returned, leaving the file
// untouched. freed lists copies whose payloads the caller must delete;
// foreignFreed is the released foreign reference, to be dropped at its
// owning shard.
func (m *Manager) RemapCommit(t PendingRemap, copied []proto.ChunkRef) (fresh, freed, foreignFreed []proto.ChunkRef, err error) {
	cm := m.pendingFresh(t)
	f, ok := m.files[t.Name]
	switch {
	case !ok:
		err = proto.ErrNoSuchFile
	case t.ChunkIdx >= len(f.chunks) || f.chunks[t.ChunkIdx] != t.Old:
		err = ErrRemapRaced
	case !slices.Contains(copied, cm.ref):
		err = fmt.Errorf("manager: remap of %q chunk %d: fresh primary %v was not copied", t.Name, t.ChunkIdx, cm.ref)
	}
	if err != nil {
		return nil, m.RemapAbort(t), nil, err
	}
	cm.replicas = slices.DeleteFunc(cm.replicas, func(r proto.ChunkRef) bool {
		if slices.Contains(copied, r) {
			return false
		}
		m.unreserve(r)
		freed = append(freed, r)
		return true
	})
	f.chunks[t.ChunkIdx] = cm.ref
	cm.pins-- // the remap's hold becomes the file's reference
	if !m.Owns(t.Old.ID) {
		m.dropForeign(t.Old)
		foreignFreed = []proto.ChunkRef{t.Old}
	} else {
		freed = append(freed, m.unpin(t.Old.ID)...)
		// The file's own reference; old dies here if a racing delete of
		// the checkpoint left this file as its last holder.
		if refs, gone := m.releaseChunk(t.Old.ID); gone {
			freed = append(freed, refs...)
		}
	}
	return m.Replicas(cm.ref.ID), freed, foreignFreed, nil
}

// RemapAbort rolls a begun remap back: the fresh chunk's reservation is
// released and the old chunk unpinned, leaving file table, refcounts and
// occupancy as they were before RemapBegin. It returns the copies whose
// payloads the caller must delete — the fresh ones (possibly partly
// written), plus the old chunk's if every other holder vanished meanwhile.
func (m *Manager) RemapAbort(t PendingRemap) (freed []proto.ChunkRef) {
	freed = m.unpin(m.pendingFresh(t).ref.ID)
	if m.Owns(t.Old.ID) {
		freed = append(freed, m.unpin(t.Old.ID)...)
	}
	return freed
}

// pendingFresh returns the unpublished fresh chunk of a begun remap. A
// missing or unpinned chunk means the remap was already committed or
// aborted — a caller bug, not a runtime condition.
func (m *Manager) pendingFresh(t PendingRemap) *chunkMeta {
	if t.Shared() {
		if cm, ok := m.chunks[t.Fresh[0].ID]; ok && cm.pins > 0 {
			return cm
		}
	}
	panic(fmt.Sprintf("manager: remap of %q chunk %d is not in flight", t.Name, t.ChunkIdx))
}

// unpin drops one remap pin (and the reference it counted) from a chunk.
func (m *Manager) unpin(id proto.ChunkID) []proto.ChunkRef {
	m.chunks[id].pins--
	freed, _ := m.releaseChunk(id)
	return freed
}

// ExportRange returns the refs, replica sets, and byte size of a chunk
// sub-range of a file — the read-only first leg of a cross-shard link: the
// client exports from the shard owning the source file, retains the refs
// at their owning shards (OpRetainRefs), then links them into the
// destination shard (OpLinkRefs). Export takes no locks beyond the call
// itself and holds nothing: if a racing delete frees a chunk before the
// client retains it, RetainRefs fails with ErrNoSuchChunk and the client
// aborts cleanly.
func (m *Manager) ExportRange(name string, fromChunk, nChunks int) (proto.FileInfo, error) {
	f, ok := m.files[name]
	if !ok {
		return proto.FileInfo{}, proto.ErrNoSuchFile
	}
	if fromChunk < 0 || nChunks < 0 || fromChunk+nChunks > len(f.chunks) {
		return proto.FileInfo{}, proto.ErrChunkOutOfRange
	}
	sub := f.chunks[fromChunk : fromChunk+nChunks]
	fi := proto.FileInfo{Name: f.name, Chunks: append([]proto.ChunkRef(nil), sub...)}
	fi.Replicas = make([][]proto.ChunkRef, len(sub))
	for i, r := range sub {
		fi.Replicas[i] = m.Replicas(r.ID)
	}
	// Size is the byte span the range covers; the trailing chunk may be
	// partial (a whole-file export reports the file size).
	start := int64(fromChunk) * m.chunkSize
	end := int64(fromChunk+nChunks) * m.chunkSize
	if end > f.size {
		end = f.size
	}
	if start > end {
		start = end
	}
	fi.Size = end - start
	return fi, nil
}

// RetainRefs adds one remote hold per listed chunk on behalf of another
// shard's file. Validation is all-or-nothing: if any chunk is unknown (or
// not owned by this shard) nothing is bumped, so a client abort never
// leaves partial holds.
func (m *Manager) RetainRefs(ids []proto.ChunkID) error {
	for _, id := range ids {
		if !m.Owns(id) {
			return fmt.Errorf("%w: retain of chunk %d not owned by shard %d", proto.ErrNoSuchChunk, id, m.shardIndex)
		}
		if _, ok := m.chunks[id]; !ok {
			return fmt.Errorf("%w: retain chunk %d", proto.ErrNoSuchChunk, id)
		}
	}
	for _, id := range ids {
		cm := m.chunks[id]
		cm.refs++
		cm.remote++
	}
	return nil
}

// ReleaseRefs drops one remote hold per listed chunk, physically freeing
// chunks whose refcount reaches zero (the refs are returned so the caller
// can delete the payloads). Unknown chunks and chunks with no outstanding
// remote holds are skipped — release is the cleanup leg of a client-
// orchestrated protocol and must tolerate replays without corrupting
// local accounting.
func (m *Manager) ReleaseRefs(ids []proto.ChunkID) (freed []proto.ChunkRef) {
	for _, id := range ids {
		cm, ok := m.chunks[id]
		if !ok || cm.remote <= 0 {
			continue
		}
		cm.remote--
		if refs, gone := m.releaseChunk(id); gone {
			freed = append(freed, refs...)
		}
	}
	return freed
}

// LinkRefs appends an explicit ref list to a file, creating the file first
// when create is set; it is the only transition that appends to a file's
// chunk list. Link and Derive build their lists in-process; a sharded
// client builds them from other shards' lookups and exports. Refs this
// shard owns simply gain a local reference; foreign refs are recorded in
// the foreign table with their replica sets (the client retains matching
// holds at the owners). size is the byte end of the appended run measured
// from its first chunk and must fit the run's chunks; when positive, the
// file's size becomes that end offset past the file's earlier chunks.
func (m *Manager) LinkRefs(name string, refs []proto.ChunkRef, replicas [][]proto.ChunkRef, size int64, create bool) (proto.FileInfo, error) {
	f, ok := m.files[name]
	if create && ok {
		return proto.FileInfo{}, proto.ErrFileExists
	}
	if !create && !ok {
		return proto.FileInfo{}, proto.ErrNoSuchFile
	}
	if size < 0 || size > int64(len(refs))*m.chunkSize {
		return proto.FileInfo{}, fmt.Errorf("manager: size %d does not fit the %d chunks linked into %q", size, len(refs), name)
	}
	// Validate owned refs before mutating anything.
	for _, r := range refs {
		if m.Owns(r.ID) {
			if _, ok := m.chunks[r.ID]; !ok {
				return proto.FileInfo{}, fmt.Errorf("%w: link ref %v", proto.ErrNoSuchChunk, r)
			}
		}
	}
	if create {
		f = &file{name: name}
		m.files[name] = f
	}
	if size > 0 {
		f.size = int64(len(f.chunks))*m.chunkSize + size
	}
	for i, r := range refs {
		if m.Owns(r.ID) {
			cm := m.chunks[r.ID]
			cm.refs++
			f.chunks = append(f.chunks, cm.ref)
			continue
		}
		fm := m.foreign[r.ID]
		if fm == nil {
			reps := []proto.ChunkRef{r}
			if i < len(replicas) && len(replicas[i]) > 0 {
				reps = append([]proto.ChunkRef(nil), replicas[i]...)
			}
			fm = &foreignMeta{replicas: reps}
			m.foreign[r.ID] = fm
		}
		fm.refs++
		f.chunks = append(f.chunks, r)
	}
	return m.info(f), nil
}

// Refcount returns a chunk's current reference count (0 if unknown).
func (m *Manager) Refcount(id proto.ChunkID) int {
	if cm, ok := m.chunks[id]; ok {
		return cm.refs
	}
	return 0
}

// RemoteHolds returns how many of a chunk's references are holds taken by
// other shards (0 if unknown).
func (m *Manager) RemoteHolds(id proto.ChunkID) int {
	if cm, ok := m.chunks[id]; ok {
		return cm.remote
	}
	return 0
}

// ForeignRefs returns how many local file references this shard holds on a
// chunk owned by another shard (0 if none).
func (m *Manager) ForeignRefs(id proto.ChunkID) int {
	if fm, ok := m.foreign[id]; ok {
		return fm.refs
	}
	return 0
}

// Files returns all file names, sorted.
func (m *Manager) Files() []string {
	out := make([]string, 0, len(m.files))
	for n := range m.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TotalChunks returns the number of live physical chunks.
func (m *Manager) TotalChunks() int { return len(m.chunks) }

// CheckInvariants verifies internal consistency: every file's size fits
// its chunks, every file chunk exists with a positive refcount, refcounts
// equal the number of referencing file entries plus remote holds plus
// in-flight remap pins, foreign-table counts equal the file references to
// other shards' chunks, chunk-ID ownership matches the shard's stride, and
// per-benefactor usage equals chunkSize times its (owned) copy count,
// reserved repair destinations included.
// Tests call it after random operation sequences.
func (m *Manager) CheckInvariants() error {
	refs := make(map[proto.ChunkID]int)
	foreignRefs := make(map[proto.ChunkID]int)
	for _, f := range m.files {
		if f.size < 0 || f.size > int64(len(f.chunks))*m.chunkSize {
			return fmt.Errorf("file %q size %d does not fit its %d chunks", f.name, f.size, len(f.chunks))
		}
		for _, r := range f.chunks {
			if !m.Owns(r.ID) {
				if _, ok := m.foreign[r.ID]; !ok {
					return fmt.Errorf("file %q references foreign chunk %d with no foreign-table entry", f.name, r.ID)
				}
				foreignRefs[r.ID]++
				continue
			}
			cm, ok := m.chunks[r.ID]
			if !ok {
				return fmt.Errorf("file %q references missing chunk %d", f.name, r.ID)
			}
			if cm.ref != r {
				return fmt.Errorf("chunk %d ref mismatch: file says %v, meta says %v", r.ID, r, cm.ref)
			}
			refs[r.ID]++
		}
	}
	for id, cm := range m.chunks {
		if !m.Owns(id) {
			return fmt.Errorf("chunk %d in local table but owned by shard %d (this is shard %d)", id, m.Owner(id), m.shardIndex)
		}
		if cm.remote < 0 {
			return fmt.Errorf("chunk %d has negative remote holds %d", id, cm.remote)
		}
		if cm.pins < 0 {
			return fmt.Errorf("chunk %d has negative remap pins %d", id, cm.pins)
		}
		if refs[id]+cm.remote+cm.pins != cm.refs {
			return fmt.Errorf("chunk %d refcount %d but %d file references + %d remote holds + %d remap pins", id, cm.refs, refs[id], cm.remote, cm.pins)
		}
		if cm.refs <= 0 {
			return fmt.Errorf("chunk %d has nonpositive refcount", id)
		}
	}
	for id, fm := range m.foreign {
		if m.Owns(id) {
			return fmt.Errorf("foreign-table entry %d is owned by this shard", id)
		}
		if fm.refs <= 0 {
			return fmt.Errorf("foreign chunk %d has nonpositive hold count", id)
		}
		if foreignRefs[id] != fm.refs {
			return fmt.Errorf("foreign chunk %d hold count %d but %d file references", id, fm.refs, foreignRefs[id])
		}
	}
	used := make(map[int]int64)
	for _, cm := range m.chunks {
		used[cm.ref.Benefactor] += m.chunkSize
		seen := map[int]bool{cm.ref.Benefactor: true}
		for _, rep := range append(cm.replicas, cm.reserved...) {
			if rep.ID != cm.ref.ID {
				return fmt.Errorf("chunk %d replica carries ID %d", cm.ref.ID, rep.ID)
			}
			if seen[rep.Benefactor] {
				return fmt.Errorf("chunk %d has two copies on benefactor %d", cm.ref.ID, rep.Benefactor)
			}
			seen[rep.Benefactor] = true
			used[rep.Benefactor] += m.chunkSize
		}
	}
	for _, id := range m.benOrder {
		b := m.bens[id]
		if b.info.Used != used[id] {
			return fmt.Errorf("benefactor %d used=%d but chunks account for %d", id, b.info.Used, used[id])
		}
	}
	return nil
}
