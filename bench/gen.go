package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
)

// Geometry g2s3b-r2 and the sizes every workload is built from. They are
// constants, never derived from the host, so two machines run the same ops.
const (
	geometry    = "g2s3b-r2"
	nShards     = 2
	nBens       = 3
	replication = 2
	chunkSize   = 256 << 10
	pageSize    = 4 << 10
	pagesPerChk = chunkSize / pageSize
	nRanks      = 2
	mib         = 1 << 20
)

// rng is splitmix64. The benchmark owns its generator so that a seed gives
// the same op sequence on every Go release (math/rand makes no such
// promise across major versions of its algorithms).
type rng struct{ s uint64 }

// newRng derives an independent stream per (seed, stream) pair; streams
// separate ranks and workloads so adding one never shifts another.
func newRng(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream+1)*0x9E3779B97F4A7C15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// name returns a store file name that carries no trace of the workload or
// the seed: a fixed one-letter prefix and 48 random bits.
func (r *rng) name(prefix string) string {
	return fmt.Sprintf("%s%012x", prefix, r.next()&0xFFFFFFFFFFFF)
}

// distinct fills dst with distinct values in [0, n).
func (r *rng) distinct(dst []int, n int) {
	for i := range dst {
	again:
		v := r.intn(n)
		for _, p := range dst[:i] {
			if p == v {
				goto again
			}
		}
		dst[i] = v
	}
}

// opKind names one call into the system under test. The first group are
// facade calls (root spans in a trace), the second the raw metadata calls
// of meta-churn, the third the simulator entry points.
type opKind uint8

const (
	opRead       opKind = iota // Region.ReadAt
	opWrite                    // Region.WriteAt
	opSync                     // Region.Sync
	opCheckpoint               // Client.Checkpoint(name, dram, region)
	opRestore                  // Client.RestoreRegion(src→name) + read-back + Free
	opDelCkpt                  // Client.DeleteCheckpoint(name)
	opMalloc                   // Client.Malloc (set-up and restore only)
	opFree                     // Region.Free
	opCreate                   // rpc.Store.Create
	opStat                     // rpc.Store.Stat
	opDelete                   // rpc.Store.Delete
	opFig3                     // experiments.Fig3
	opTable7                   // experiments.Table7
	nOpKinds
)

var opNames = [nOpKinds]string{
	"read_at", "write_at", "sync", "checkpoint", "restore", "delete_checkpoint",
	"malloc", "free", "create", "stat", "delete", "fig3", "table7",
}

func (k opKind) String() string { return opNames[k] }

// op is one generated call. off/n address bytes of the rank's region; name
// (and src, for restore) are store file names.
type op struct {
	kind opKind
	off  int64
	n    int
	name string
	src  string
}

// opSource yields a workload's calls for one rank, in order. The program
// under test only ever sees what a source generated.
type opSource interface {
	next() (op, bool)
}

// hashOps folds every op of src into h and returns their number; the
// generator tests pin the result.
func hashOps(h hash.Hash64, src opSource) int {
	var b [17]byte
	for n := 0; ; n++ {
		o, ok := src.next()
		if !ok {
			return n
		}
		b[0] = byte(o.kind)
		binary.LittleEndian.PutUint64(b[1:], uint64(o.off))
		binary.LittleEndian.PutUint64(b[9:], uint64(o.n))
		h.Write(b[:17])
		h.Write([]byte(o.name))
		h.Write([]byte{0})
		h.Write([]byte(o.src))
		h.Write([]byte{0})
	}
}

func newOpHash() hash.Hash64 { return fnv.New64a() }

// seqSource is one phase of seq-stream for one rank: passes sequential
// sweeps of the region in 1 MiB ops, each pass starting at a seeded
// offset and wrapping, so every seed reads the same bytes in another order
// while the pattern stays sequential (read-ahead keeps firing). In the
// write phase every WriteAt is followed by a Sync (the msync of an
// out-of-core sweep), so each op's latency includes its wire time.
type seqSource struct {
	r      *rng
	kind   opKind
	opsPer int // 1 MiB ops per pass
	left   int // passes left
	i      int // op within the pass
	start  int
	sync   bool // the next op is the Sync that follows a write
}

func newSeqSource(seed uint64, rank int, write bool, regionBytes int64, passes int) *seqSource {
	kind, stream := opRead, uint64(100+rank)
	if write {
		kind, stream = opWrite, uint64(200+rank)
	}
	s := &seqSource{r: newRng(seed, stream), kind: kind, opsPer: int(regionBytes / mib), left: passes}
	s.start = s.r.intn(s.opsPer)
	return s
}

func (s *seqSource) next() (op, bool) {
	if s.sync {
		s.sync = false
		return op{kind: opSync}, true
	}
	if s.left == 0 {
		return op{}, false
	}
	o := op{kind: s.kind, off: int64((s.start+s.i)%s.opsPer) * mib, n: mib}
	s.sync = s.kind == opWrite
	if s.i++; s.i == s.opsPer {
		s.i, s.left = 0, s.left-1
		s.start = s.r.intn(s.opsPer)
	}
	return o, true
}

// hotSource is hot-page for one rank: random 4 KiB ops, 70 % reads, with a
// Sync every syncEvery data ops.
type hotSource struct {
	r         *rng
	pages     int
	left      int
	sinceSync int
}

const hotSyncEvery = 50000

func newHotSource(seed uint64, rank int, regionBytes int64, ops int) *hotSource {
	return &hotSource{r: newRng(seed, uint64(300+rank)), pages: int(regionBytes / pageSize), left: ops}
}

func (s *hotSource) next() (op, bool) {
	if s.sinceSync == hotSyncEvery {
		s.sinceSync = 0
		return op{kind: opSync}, true
	}
	if s.left == 0 {
		return op{}, false
	}
	s.left--
	s.sinceSync++
	v := s.r.next()
	o := op{kind: opRead, off: int64(v>>8%uint64(s.pages)) * pageSize, n: pageSize}
	if v&0xFF < 77 { // 77/256 = 30 % writes
		o.kind = opWrite
	}
	return o, true
}

// ckptSource is ckpt-cycle: each timestep dirties ckptPagesPer random pages
// in each of ckptChunksPer random chunks, checkpoints, on every 5th step
// restores the previous checkpoint (which the step's writes came after, so
// the restore proves copy-on-write kept it intact), and deletes all but the
// two newest checkpoints.
type ckptSource struct {
	r       *rng
	chunks  int
	steps   int
	t       int
	queue   []op
	kept    []string
	chunkIx [ckptChunksPer]int
	pageIx  [ckptPagesPer]int
}

const (
	ckptChunksPer    = 13 // ≈10 % of a 128-chunk variable
	ckptPagesPer     = 4
	ckptRestoreEvery = 5
	ckptKeep         = 2
	ckptDRAMBytes    = 1 * mib
)

func newCkptSource(seed uint64, regionBytes int64, steps int) *ckptSource {
	return &ckptSource{r: newRng(seed, 400), chunks: int(regionBytes / chunkSize), steps: steps}
}

func (s *ckptSource) next() (op, bool) {
	if len(s.queue) == 0 {
		if s.t == s.steps {
			return op{}, false
		}
		s.t++
		s.r.distinct(s.chunkIx[:], s.chunks)
		for _, c := range s.chunkIx {
			s.r.distinct(s.pageIx[:], pagesPerChk)
			for _, p := range s.pageIx {
				s.queue = append(s.queue, op{kind: opWrite, off: int64(c)*chunkSize + int64(p)*pageSize, n: pageSize})
			}
		}
		name := s.r.name("k")
		s.queue = append(s.queue, op{kind: opCheckpoint, name: name})
		if s.t%ckptRestoreEvery == 0 && len(s.kept) > 0 {
			s.queue = append(s.queue, op{kind: opRestore, src: s.kept[len(s.kept)-1], name: s.r.name("r")})
		}
		s.kept = append(s.kept, name)
		for len(s.kept) > ckptKeep {
			s.queue = append(s.queue, op{kind: opDelCkpt, name: s.kept[0]})
			s.kept = s.kept[1:]
		}
	}
	o := s.queue[0]
	s.queue = s.queue[1:]
	return o, true
}

// metaSource is meta-churn for one goroutine: cycles of Create(3 chunks) →
// Stat ×2 → Delete on seeded names, which spread over both shards.
type metaSource struct {
	r    *rng
	left int
	step int
	name string
}

const metaFileBytes = 3 * chunkSize

func newMetaSource(seed uint64, g int, cycles int) *metaSource {
	return &metaSource{r: newRng(seed, uint64(500+g)), left: cycles}
}

func (s *metaSource) next() (op, bool) {
	if s.step == 0 {
		if s.left == 0 {
			return op{}, false
		}
		s.left--
		s.name = s.r.name("m")
	}
	o := op{name: s.name}
	switch s.step {
	case 0:
		o.kind, o.n = opCreate, metaFileBytes
	case 1, 2:
		o.kind = opStat
	case 3:
		o.kind = opDelete
	}
	s.step = (s.step + 1) % 4
	return o, true
}

// simSource is sim-mm: fig3 repetitions of the Fig. 3 matrix-multiply
// breakdown, then table7 repetitions of the Table VII random-write run.
// The simulator is deterministic and takes no seed; the source exists so
// that all five workloads are driven the same way.
type simSource struct{ fig3, table7 int }

func (s *simSource) next() (op, bool) {
	switch {
	case s.fig3 > 0:
		s.fig3--
		return op{kind: opFig3}, true
	case s.table7 > 0:
		s.table7--
		return op{kind: opTable7}, true
	}
	return op{}, false
}
