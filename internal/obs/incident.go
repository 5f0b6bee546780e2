package obs

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// IncidentConfig configures the on-disk incident recorder.
type IncidentConfig struct {
	// Dir is where bundles live (one subdirectory per bundle). Required.
	Dir string
	// MaxBundles bounds the on-disk ring: when a fresh capture would
	// exceed it, the oldest bundles are pruned. Default 8.
	MaxBundles int
	// CPUProfile is how long the CPU profile inside each bundle samples
	// for. Default 5s; negative skips the CPU profile entirely.
	CPUProfile time.Duration
	// SeriesTail is how many trailing monitor samples are written into
	// series.json. Default 64.
	SeriesTail int
	// Cooldown suppresses repeat captures: a non-forced capture within
	// Cooldown of the previous one returns the existing bundle instead of
	// writing a new one, so one incident produces one bundle per daemon
	// even when several rules fire across it. Default 10m.
	Cooldown time.Duration
}

func (c IncidentConfig) withDefaults() IncidentConfig {
	if c.MaxBundles <= 0 {
		c.MaxBundles = 8
	}
	if c.CPUProfile == 0 {
		c.CPUProfile = 5 * time.Second
	}
	if c.SeriesTail <= 0 {
		c.SeriesTail = 64
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Minute
	}
	return c
}

// IncidentMeta describes one captured bundle; it is the meta.json inside
// the bundle and the row /incidents lists.
type IncidentMeta struct {
	ID        string   `json:"id"`
	Node      string   `json:"node"`
	Reason    string   `json:"reason"`
	UnixNanos int64    `json:"unix_nanos"`
	Identity  Identity `json:"identity"`
	Firing    []Alert  `json:"firing,omitempty"`
	Files     []string `json:"files"`
}

// IncidentRecorder snapshots bounded diagnostic bundles to disk: a
// goroutine dump, heap and CPU profiles, the span ring (with its events:
// the death that fired a rule is in spans.json) and slow-op flight
// recorder, the tail of the monitor time series, the firing-rule state,
// and the daemon's cluster identity — everything a responder needs,
// saved at the moment the alert fired rather than reconstructed later.
type IncidentRecorder struct {
	cfg IncidentConfig
	o   *Obs

	mu        sync.Mutex
	last      IncidentMeta
	lastNanos int64
	inflight  bool
	wg        sync.WaitGroup
}

// cpuProfileMu serializes CPU profiling process-wide: the runtime allows
// only one active CPU profile, and tests run several daemons (hence
// recorders) in one process.
var cpuProfileMu sync.Mutex

// NewIncidentRecorder creates cfg.Dir (if needed) and returns a recorder
// writing into it.
func NewIncidentRecorder(o *Obs, cfg IncidentConfig) (*IncidentRecorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("incident: Dir is required")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("incident: %w", err)
	}
	return &IncidentRecorder{cfg: cfg, o: o}, nil
}

// Dir returns the bundle directory.
func (ir *IncidentRecorder) Dir() string {
	if ir == nil {
		return ""
	}
	return ir.cfg.Dir
}

// TriggerAsync starts a background capture for reason unless one is
// already in flight or the cooldown suppresses it. This is the hook the
// rule evaluator calls on a pending→firing edge: it must return
// immediately (Eval runs on the monitor goroutine) and must not stack
// captures when several rules fire together.
func (ir *IncidentRecorder) TriggerAsync(reason string) {
	if ir == nil {
		return
	}
	ir.mu.Lock()
	if ir.inflight || (ir.lastNanos != 0 && time.Now().UnixNano()-ir.lastNanos < ir.cfg.Cooldown.Nanoseconds()) {
		ir.mu.Unlock()
		return
	}
	ir.inflight = true
	ir.wg.Add(1)
	ir.mu.Unlock()
	go func() {
		defer ir.wg.Done()
		if _, _, err := ir.capture(reason); err != nil && ir.o != nil {
			ir.o.Log.Error("incident capture failed", "reason", reason, "err", err)
		}
	}()
}

// Capture writes a bundle synchronously. Without force, a capture inside
// the cooldown window returns the previous bundle's meta with
// fresh=false instead of writing a new one.
func (ir *IncidentRecorder) Capture(reason string, force bool) (IncidentMeta, bool, error) {
	if ir == nil {
		return IncidentMeta{}, false, fmt.Errorf("incident: no recorder configured")
	}
	ir.mu.Lock()
	for ir.inflight {
		// An async capture is running; wait for it so we can report its
		// bundle instead of racing a second one.
		ir.mu.Unlock()
		ir.wg.Wait()
		ir.mu.Lock()
	}
	if !force && ir.lastNanos != 0 && time.Now().UnixNano()-ir.lastNanos < ir.cfg.Cooldown.Nanoseconds() {
		meta := ir.last
		ir.mu.Unlock()
		return meta, false, nil
	}
	ir.inflight = true
	ir.wg.Add(1)
	ir.mu.Unlock()
	defer ir.wg.Done()
	return ir.capture(reason)
}

// capture does the actual bundle write; callers hold the inflight token.
func (ir *IncidentRecorder) capture(reason string) (IncidentMeta, bool, error) {
	meta, err := ir.writeBundle(reason)
	ir.mu.Lock()
	ir.inflight = false
	if err == nil {
		ir.last = meta
		ir.lastNanos = meta.UnixNanos
	}
	ir.mu.Unlock()
	if err != nil {
		return IncidentMeta{}, false, err
	}
	ir.prune()
	if ir.o != nil {
		ir.o.Log.Info("incident bundle captured", "id", meta.ID, "reason", reason)
		if c := ir.o.Reg.Counter("incident.captured"); c != nil {
			c.Add(1)
		}
	}
	return meta, true, nil
}

// sanitizeNode maps a node name onto the filesystem-safe alphabet bundle
// IDs use.
func sanitizeNode(node string) string {
	if node == "" {
		return "node"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, node)
}

func (ir *IncidentRecorder) writeBundle(reason string) (IncidentMeta, error) {
	now := time.Now()
	id := ir.o.Identity()
	node := id.Node
	if node == "" && ir.o != nil && ir.o.Reg != nil {
		node = ir.o.Reg.Node()
	}
	bundleID := fmt.Sprintf("inc-%s-%s", now.UTC().Format("20060102T150405.000Z0700"), sanitizeNode(node))
	meta := IncidentMeta{
		ID:        bundleID,
		Node:      node,
		Reason:    reason,
		UnixNanos: now.UnixNano(),
		Identity:  id,
		Firing:    ir.o.FiringAlerts(),
	}

	tmp := filepath.Join(ir.cfg.Dir, ".tmp-"+bundleID)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return IncidentMeta{}, err
	}
	defer os.RemoveAll(tmp) // no-op after the rename succeeds

	write := func(name string, fn func(w io.Writer) error) {
		f, err := os.Create(filepath.Join(tmp, name))
		if err != nil {
			return
		}
		werr := fn(f)
		cerr := f.Close()
		if werr == nil && cerr == nil {
			meta.Files = append(meta.Files, name)
		}
	}

	write("goroutines.txt", func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 2)
	})
	write("heap.pprof", func(w io.Writer) error {
		return pprof.WriteHeapProfile(w)
	})
	if ir.cfg.CPUProfile > 0 {
		write("cpu.pprof", func(w io.Writer) error {
			cpuProfileMu.Lock()
			defer cpuProfileMu.Unlock()
			if err := pprof.StartCPUProfile(w); err != nil {
				return err
			}
			time.Sleep(ir.cfg.CPUProfile)
			pprof.StopCPUProfile()
			return nil
		})
	}
	writeJSON := func(name string, v any) {
		write(name, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		})
	}
	if ir.o != nil {
		if ir.o.Spans != nil {
			writeJSON("spans.json", ir.o.Spans.Spans())
		}
		if ir.o.Slow != nil {
			writeJSON("slow.json", ir.o.Slow.Spans())
		}
		if ts := ir.o.TimeSeries(); ts != nil {
			samples := ts.Samples()
			if len(samples) > ir.cfg.SeriesTail {
				samples = samples[len(samples)-ir.cfg.SeriesTail:]
			}
			writeJSON("series.json", samples)
		}
		if rs := ir.o.Rules(); rs != nil {
			writeJSON("alerts.json", rs.States())
		}
		if ir.o.Reg != nil {
			writeJSON("metrics.json", ir.o.Reg.Snapshot())
		}
	}
	// meta.json lists every file in the bundle, itself included, so a
	// responder (or List) sees the complete manifest.
	meta.Files = append(meta.Files, "meta.json")
	if f, err := os.Create(filepath.Join(tmp, "meta.json")); err == nil {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		werr := enc.Encode(&meta)
		if cerr := f.Close(); werr != nil || cerr != nil {
			meta.Files = meta.Files[:len(meta.Files)-1]
		}
	} else {
		meta.Files = meta.Files[:len(meta.Files)-1]
	}

	final := filepath.Join(ir.cfg.Dir, bundleID)
	if err := os.Rename(tmp, final); err != nil {
		return IncidentMeta{}, err
	}
	return meta, nil
}

// prune deletes the oldest bundles past MaxBundles. Bundle IDs embed a
// UTC timestamp, so lexical order is capture order.
func (ir *IncidentRecorder) prune() {
	ids := ir.ids()
	for len(ids) > ir.cfg.MaxBundles {
		os.RemoveAll(filepath.Join(ir.cfg.Dir, ids[0]))
		ids = ids[1:]
	}
}

// ids returns bundle directory names, oldest first.
func (ir *IncidentRecorder) ids() []string {
	ents, err := os.ReadDir(ir.cfg.Dir)
	if err != nil {
		return nil
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "inc-") {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids
}

// List returns the metas of every bundle on disk, newest first.
func (ir *IncidentRecorder) List() []IncidentMeta {
	if ir == nil {
		return nil
	}
	ids := ir.ids()
	out := make([]IncidentMeta, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		b, err := os.ReadFile(filepath.Join(ir.cfg.Dir, ids[i], "meta.json"))
		if err != nil {
			continue
		}
		var m IncidentMeta
		if json.Unmarshal(b, &m) == nil {
			out = append(out, m)
		}
	}
	return out
}

// WriteTar streams bundle id as a gzipped tarball (the /incidents/bundle
// response body and the building block nvmctl bundle merges).
func (ir *IncidentRecorder) WriteTar(w io.Writer, id string) error {
	if ir == nil {
		return fmt.Errorf("incident: no recorder configured")
	}
	// Reject path escapes: IDs are single path elements.
	if id == "" || strings.ContainsAny(id, "/\\") || id == "." || id == ".." {
		return fmt.Errorf("incident: bad bundle id %q", id)
	}
	dir := filepath.Join(ir.cfg.Dir, id)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("incident: %w", err)
	}
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		hdr := &tar.Header{
			Name:    id + "/" + e.Name(),
			Mode:    0o644,
			Size:    info.Size(),
			ModTime: info.ModTime(),
		}
		if err := tw.WriteHeader(hdr); err != nil {
			f.Close()
			return err
		}
		if _, err := io.Copy(tw, f); err != nil {
			f.Close()
			return err
		}
		f.Close()
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

// Wait blocks until any in-flight async capture finishes — daemon
// shutdown and tests call it so bundles are never half-written when the
// process exits.
func (ir *IncidentRecorder) Wait() {
	if ir == nil {
		return
	}
	ir.wg.Wait()
}

// BundlePart is one daemon's tar.gz bundle stream, tagged with the node
// it came from, for MergeBundles.
type BundlePart struct {
	Node string
	R    io.Reader
}

// MergeBundles re-tars every part's entries under a "<node>/" prefix into
// one combined tar.gz archive — the cluster-wide incident view `nvmctl
// bundle` produces.
func MergeBundles(w io.Writer, parts []BundlePart) error {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	for _, p := range parts {
		pgz, err := gzip.NewReader(p.R)
		if err != nil {
			return fmt.Errorf("merge %s: %w", p.Node, err)
		}
		tr := tar.NewReader(pgz)
		for {
			hdr, err := tr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("merge %s: %w", p.Node, err)
			}
			out := *hdr
			out.Name = sanitizeNode(p.Node) + "/" + hdr.Name
			if err := tw.WriteHeader(&out); err != nil {
				return err
			}
			if _, err := io.Copy(tw, tr); err != nil {
				return err
			}
		}
		pgz.Close()
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}
