package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"nvmalloc"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/store"
)

// runSeconds is BENCHMARK.json's run_seconds; testScale is 1/50 of it.
const (
	runSeconds = defaultSeconds
	testScale  = runSeconds / 50.0
)

// sources builds every generator as a full run would, at a small size.
func sources(seed uint64) map[string]opSource {
	return map[string]opSource{
		"seq-stream/write": newSeqSource(seed, 1, true, seqRegionBytes, 2),
		"seq-stream/read":  newSeqSource(seed, 0, false, seqRegionBytes, 3),
		"hot-page":         newHotSource(seed, 1, hotRegionBytes, 120000),
		"ckpt-cycle":       newCkptSource(seed, ckptRegionBytes, 12),
		"meta-churn":       newMetaSource(seed, 1, 500),
	}
}

// TestGeneratorsPinned: the same seed gives a byte-identical op sequence —
// today, and after any later change (the hashes are pinned) — and another
// seed gives another sequence.
func TestGeneratorsPinned(t *testing.T) {
	pinned := map[string]string{
		"seq-stream/write": "a87827bb7768f5a5",
		"seq-stream/read":  "e9fd19a8d394eb25",
		"hot-page":         "f58c0f7171cc6309",
		"ckpt-cycle":       "2f68ef3e1ecde509",
		"meta-churn":       "15963d90a1a7b869",
	}
	hashAll := func(seed uint64) map[string]string {
		out := map[string]string{}
		for name, src := range sources(seed) {
			h := newOpHash()
			if n := hashOps(h, src); n == 0 {
				t.Fatalf("%s generated nothing", name)
			}
			out[name] = fmt.Sprintf("%016x", h.Sum64())
		}
		return out
	}
	one, again, two := hashAll(1), hashAll(1), hashAll(2)
	for name, want := range pinned {
		if one[name] != again[name] {
			t.Errorf("%s: seed 1 gave %s then %s", name, one[name], again[name])
		}
		if one[name] != want {
			t.Errorf("%s: seed 1 hashes to %s, pinned %s — the generator changed, so every earlier result is from other inputs", name, one[name], want)
		}
		if one[name] == two[name] {
			t.Errorf("%s: seeds 1 and 2 give the same ops", name)
		}
	}
}

// TestNamesLeakNothing: what reaches the system under test carries neither
// a workload's name nor the seed, so the program cannot tell which
// benchmark run it is in.
func TestNamesLeakNothing(t *testing.T) {
	const seed = 7654321
	for which, src := range sources(seed) {
		for {
			o, ok := src.next()
			if !ok {
				break
			}
			for _, name := range []string{o.name, o.src} {
				for _, w := range workloadDefs {
					for _, word := range append(strings.Split(w.Name, "-"), w.Name) {
						if strings.Contains(name, word) {
							t.Fatalf("%s: store name %q contains %q", which, name, word)
						}
					}
				}
				if strings.Contains(name, fmt.Sprint(seed)) || strings.Contains(name, fmt.Sprintf("%x", seed)) {
					t.Fatalf("%s: store name %q contains the seed", which, name)
				}
			}
		}
	}
}

// replay drives one fixed op sequence through a client: whole-chunk
// writes, random page ops under cache pressure, a checkpoint, copy-on-write
// writes after it, a restore, and the frees.
func replay(t *testing.T, c *nvmalloc.Client) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	const size = 16 * chunkSize
	r, err := c.Malloc(nil, size, nvmalloc.WithName("fid-var"))
	must(err)
	buf := make([]byte, chunkSize)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	for ch := size/chunkSize - 1; ch >= 0; ch-- {
		must(r.WriteAt(nil, int64(ch)*chunkSize, buf))
	}
	must(r.Sync(nil))
	rg := newRng(42, 0)
	page := make([]byte, pageSize)
	for i := 0; i < 3000; i++ {
		off := int64(rg.intn(size/pageSize)) * pageSize
		if rg.intn(10) < 3 {
			must(r.WriteAt(nil, off, buf[:pageSize]))
		} else {
			must(r.ReadAt(nil, off, page))
		}
	}
	info, err := c.Checkpoint(nil, "fid-ckpt", buf[:3*pageSize], r)
	must(err)
	for i := 0; i < 40; i++ {
		must(r.WriteAt(nil, int64(rg.intn(size/pageSize))*pageSize, buf[:pageSize]))
	}
	must(r.Sync(nil))
	rr, err := c.RestoreRegion(nil, "fid-ckpt", info.Regions[0], "fid-restored")
	must(err)
	for off := int64(0); off < size; off += chunkSize {
		must(rr.ReadAt(nil, off, buf))
	}
	must(rr.Free(nil))
	must(c.DeleteCheckpoint(nil, "fid-ckpt"))
	must(r.Free(nil))
}

// TestMirrorFidelity: connectTraced is a copy of nvmalloc.Connect's body
// with shims inserted. The same ops through both must leave the same
// counters in every layer, or the traced run measures another program.
// Read-ahead is off here so that no counter depends on timing; the traced
// workloads in TestWorkloadsSmall cover read-ahead.
func TestMirrorFidelity(t *testing.T) {
	cfg := nvmalloc.ConnectConfig{CacheBytes: 8 * chunkSize, PageCacheBytes: 64 * pageSize, ReadAheadChunks: -1}
	type snap struct {
		cc  fusecache.Stats
		pc  fusecache.PageStats
		rpc rpc.Stats
	}
	run := func(traced bool) snap {
		cl, err := bootCluster(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.close()
		var c *nvmalloc.Client
		if traced {
			tr := newTracer()
			tr.on.Store(true)
			c, err = connectTraced(cl.addrs(), cfg, tr)
		} else {
			c, err = nvmalloc.Connect(cl.addrs(), cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		replay(t, c)
		cs, rs := c.ChunkCache().Stats(), storeOf(c).Stats()
		cs.Waits, rs.InFlightPeak = 0, 0 // the only two that depend on timing
		s := snap{cs, c.PageCache().Stats(), rs}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if used := cl.used(); used != 0 {
			t.Fatalf("benefactors hold %d bytes after the replay", used)
		}
		return s
	}
	plain, traced := run(false), run(true)
	if plain != traced {
		t.Fatalf("the traced mirror drifted from nvmalloc.Connect:\n connect %+v\n mirror  %+v", plain, traced)
	}
	if plain.cc.Remaps == 0 || plain.cc.DirtyEvictions == 0 || plain.rpc.PagePuts == 0 || plain.rpc.ChunkGets == 0 || plain.pc.Faults == 0 {
		t.Fatalf("the replay left a path unexercised: %+v", plain)
	}
}

type lenderOnly struct{ zeroStore }

func (lenderOnly) PrivateChunks() bool { return true }
func (lenderOnly) ReleaseChunk([]byte) {}

type lenderSpiller struct {
	lenderOnly
	spilled *int
}

func (l lenderSpiller) SpillChunk(store.Ctx, []proto.ChunkRef, []byte) { *l.spilled++ }

// TestShimForwardsCapabilities: ChunkCache finds buffer lending and
// spilling by type assertion, so the S1 shim must have exactly the
// optional interfaces of the client it wraps — no fewer and no more.
func TestShimForwardsCapabilities(t *testing.T) {
	tr := newTracer()
	plain := newS1Shim(zeroStore{}, tr)
	if bl := plain.(store.BufferLender); bl.PrivateChunks() {
		t.Error("shim lends buffers over a client that does not")
	}
	if _, ok := plain.(store.ChunkSpiller); ok {
		t.Error("shim spills over a client that does not")
	}
	lender := newS1Shim(lenderOnly{}, tr)
	if bl := lender.(store.BufferLender); !bl.PrivateChunks() {
		t.Error("shim hides the client's buffer lending")
	}
	if _, ok := lender.(store.ChunkSpiller); ok {
		t.Error("shim spills over a lender that does not")
	}
	n := 0
	both := newS1Shim(lenderSpiller{spilled: &n}, tr)
	if bl := both.(store.BufferLender); !bl.PrivateChunks() {
		t.Error("spilling shim hides buffer lending")
	}
	both.(store.ChunkSpiller).SpillChunk(nil, nil, nil)
	if n != 1 {
		t.Error("SpillChunk was not forwarded")
	}
	if b := (bShim{inner: zeroBackend{}}); !b.RetainsPut() || b.PrivateGet() {
		t.Error("B shim changed the conservative buffer policy of a backend that declares none")
	}
}

type zeroBackend struct{}

func (zeroBackend) Put(proto.ChunkID, []byte) error   { return nil }
func (zeroBackend) Get(proto.ChunkID) ([]byte, error) { return nil, proto.ErrNoSuchChunk }
func (zeroBackend) Delete(proto.ChunkID) error        { return nil }
func (zeroBackend) Has(proto.ChunkID) bool            { return false }

// TestWorkloadsSmall runs every workload at 1/50 scale, untraced and
// traced: every output check passes, every S1 span has a root, and the
// layer times add up to the root-span time.
func TestWorkloadsSmall(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				p := params{seed: 3, scale: testScale, small: true}
				if traced {
					p.tracer = newTracer()
				}
				m, err := measure(w.Name, p)
				if err != nil {
					t.Fatal(err)
				}
				if m.rec.failed != 0 || m.rec.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d ops failed: %v", traced, m.rec.failed, m.rec.attempted, m.rec.firstErr)
				}
				if len(m.rec.prim) == 0 || len(m.rec.sec) == 0 || m.rec.units == 0 {
					t.Fatalf("traced=%v: %d primary, %d secondary samples, %d units", traced, len(m.rec.prim), len(m.rec.sec), m.rec.units)
				}
				if !traced {
					continue
				}
				a := p.tracer.analyse()
				var sum int64
				for _, ns := range a.layerNS {
					sum += ns
				}
				if a.nRoots == 0 || a.s1Orphans != 0 || sum != a.rootNS {
					t.Fatalf("%d roots, %d S1 orphans, layers sum to %d ns of %d ns", a.nRoots, a.s1Orphans, sum, a.rootNS)
				}
				if w.Name != "sim-mm" && len(p.tracer.spans) == 0 {
					t.Fatal("no S1 or B span recorded")
				}
				if _, err := p.tracer.writeFile(dir, w.Name, 3, a); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestChecksCatchCorruption: a stamp of the wrong generation, page or rank
// fails the check (the checks are not vacuous).
func TestChecksCatchCorruption(t *testing.T) {
	page := make([]byte, pageSize)
	putStamp(page, 1, 77, 5)
	if !checkStamp(page, 1, 77, 5) {
		t.Fatal("a correct stamp fails")
	}
	for _, bad := range [][3]int{{0, 77, 5}, {1, 78, 5}, {1, 77, 4}} {
		if checkStamp(page, bad[0], int64(bad[1]), uint32(bad[2])) {
			t.Errorf("stamp (1,77,5) passes as %v", bad)
		}
	}
	if err := checkMetaFile(proto.FileInfo{Name: "m", Size: metaFileBytes}, "m"); err == nil {
		t.Error("a file without chunks passes the metadata check")
	}
	// A checkpoint that failed leaves nothing to restore: the restore is a
	// failed op, not an index out of range.
	w := &ckptCycle{infos: map[string]nvmalloc.CheckpointInfo{"empty": {}}}
	for _, src := range []string{"", "never-taken", "empty"} {
		if err := w.restore(src, "r", false, func() {}); err == nil {
			t.Errorf("restore of checkpoint %q passes", src)
		}
	}
}

func TestSweep(t *testing.T) {
	var out [nLayers]int64
	// Root [0,100): S1 data [10,60) with B [20,30) inside, S1 meta [50,80),
	// and a read-ahead tail clipped by the caller to the root.
	sweep(0, 100, layCache, []ival{{10, 60, layRPCData}, {20, 30, layBen}, {50, 80, layRPCMeta}}, &out)
	want := [nLayers]int64{layCache: 30, layRPCData: 40, layBen: 10, layRPCMeta: 20}
	if out != want {
		t.Fatalf("sweep = %v, want %v", out, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "primary_p50_us", Better: "lower", Bound: 0.10}
	cases := []struct {
		d          metricDef
		base, cand []float64
		want       string
	}{
		{rate, []float64{100, 101, 99, 100}, []float64{100, 99, 101, 100}, vOK},
		{rate, []float64{100, 101, 99, 100}, []float64{85, 86, 84, 85}, vRegression},
		{rate, []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, vBetter},
		{lat, []float64{100, 101, 99, 100}, []float64{115, 116, 114, 115}, vRegression},
		{lat, []float64{100, 101, 99, 100}, []float64{85, 86, 84, 85}, vBetter},
		// Spread wider than the bound: the medians decide nothing…
		{lat, []float64{80, 100, 120, 140}, []float64{90, 115, 125, 150}, vUnresolved},
		// …unless one side wins every pairing.
		{lat, []float64{80, 100, 120, 140}, []float64{150, 170, 190, 230}, vRegression},
		{lat, []float64{80, 100, 120, 140}, []float64{40, 50, 60, 70}, vBetter},
		// One run a side has no spread; the bound alone decides.
		{rate, []float64{100}, []float64{80}, vRegression},
	}
	for i, c := range cases {
		if got, _, _ := judge(c.d, c.base, c.cand); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

// TestCompareSets: two sets compare only when both hold every end-to-end
// metric of every workload from the same amount of work.
func TestCompareSets(t *testing.T) {
	full := func(seconds int, scale float64, failed int64) *setFile {
		sf := &setFile{Schema: setSchema, Seconds: seconds}
		for _, w := range workloadDefs {
			for run := 1; run <= 3; run++ {
				res := result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metric{}}
				for _, d := range endToEnd {
					v := 100 + float64(run)
					if d.Better == "higher" {
						v /= scale
					} else {
						v *= scale
					}
					res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
				}
				sf.Runs = append(sf.Runs, runRecord{Workload: w.Name, Run: run, Result: res})
			}
		}
		return sf
	}
	base := full(12, 1, 0)
	if err := compareSets(base, full(12, 1.02, 0)); err != nil {
		t.Errorf("2 %% worse everywhere: %v", err)
	}
	if err := compareSets(base, full(12, 1.5, 0)); err == nil {
		t.Error("50 % worse everywhere passes")
	}
	if err := compareSets(base, full(12, 1, 1)); err == nil {
		t.Error("a candidate with failed ops passes")
	}
	if err := compareSets(base, full(6, 1, 0)); err == nil {
		t.Error("sets of different --seconds compare")
	}
	part := full(12, 1, 0)
	part.Runs = part.Runs[3:] // the first workload is missing
	if err := compareSets(base, part); err == nil {
		t.Error("a candidate without the first workload passes")
	}
	if err := compareSets(part, base); err == nil {
		t.Error("a base without the first workload passes")
	}
	one := full(12, 1, 0)
	for run := 0; run < 3; run++ {
		delete(one.Runs[run].Result.Metrics, "peak_rss_MB")
	}
	if err := compareSets(base, one); err == nil {
		t.Error("a candidate without one metric of one workload passes")
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the binary's catalogue")

// benchmarkJSON renders the contract file from the catalogue.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// TestCatalogMatchesBenchmarkJSON: BENCHMARK.json is the contract the
// driver reads; the binary prints what its own catalogue says. They must
// be the same list, within the contract's limits. `go test -update`
// rewrites the file after a change to the catalogue.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", benchmarkJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(b.Workloads), len(workloadDefs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	uniq := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		uniq(w.Name)
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the binary %q / %q", i, w.Name, w.Why, workloadDefs[i].Name, workloadDefs[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(got), len(want))
		}
		for i := range got {
			uniq(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the binary %+v", kind, i, got[i], want[i])
			}
			if !unit.MatchString(got[i].Unit) || (got[i].Better != "lower" && got[i].Better != "higher") {
				t.Errorf("%s %s: unit %q, better %q", kind, got[i].Name, got[i].Unit, got[i].Better)
			}
			if bounded != (got[i].Bound > 0) || got[i].Bound > 0.25 {
				t.Errorf("%s %s: bound %v", kind, got[i].Name, got[i].Bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("%d per-layer, %d end-to-end metrics, run_seconds %d", len(perLayer), len(endToEnd), b.RunSeconds)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the tests assume %d", b.RunSeconds, runSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
}
