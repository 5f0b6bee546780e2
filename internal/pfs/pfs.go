// Package pfs models the HPC center's shared parallel file system — the
// Lustre-style scratch that holds the matrix multiplication input/output
// files and the staging data of the DRAM-only two-pass sort (Table VI). It
// is deliberately simple: an aggregate-bandwidth FIFO pipe shared by every
// client, plus a per-open latency. That is exactly the property the paper
// leans on — the PFS is a shared, contended, disk-backed resource that
// NVMalloc lets applications avoid.
package pfs

import (
	"slices"
	"time"

	"nvmalloc/internal/proto"
	"nvmalloc/internal/simtime"
)

// Stats counts PFS traffic.
type Stats struct {
	Opens        int64
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
}

// PFS is the shared file system.
type PFS struct {
	eng      *simtime.Engine
	pipe     *simtime.Resource // aggregate bandwidth, shared by all clients
	bw       float64
	clientBW float64 // per-client streaming cap (single-stream limit)
	openLat  time.Duration
	files    map[string][]byte
	s        Stats
}

// New creates a PFS with the given aggregate bandwidth (bytes/s) and
// per-open latency. A single client stream is additionally capped at half
// the aggregate bandwidth — one process cannot saturate a parallel file
// system, which is why the paper's single-stream merge pass hurts so much
// (Table VI).
func New(e *simtime.Engine, aggregateBW float64, openLatency time.Duration) *PFS {
	return &PFS{
		eng:      e,
		pipe:     simtime.NewResource(e, "pfs", 1),
		bw:       aggregateBW,
		clientBW: aggregateBW / 2,
		openLat:  openLatency,
		files:    make(map[string][]byte),
	}
}

func (f *PFS) xfer(p *simtime.Proc, n int64) {
	shared := time.Duration(float64(n) / f.bw * float64(time.Second))
	f.pipe.Use(p, shared)
	// The single-stream cap charges the *caller* the residual time without
	// holding the shared pipe, so other clients proceed in parallel.
	single := time.Duration(float64(n) / f.clientBW * float64(time.Second))
	if single > shared {
		p.Sleep(single - shared)
	}
}

// Preload installs a file's content without charging any virtual time —
// experiment setup for inputs that exist before the measured job starts.
func (f *PFS) Preload(name string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	f.files[name] = cp
}

// Create makes an empty file (truncating any existing one) and charges the
// open latency.
func (f *PFS) Create(p *simtime.Proc, name string) {
	p.Sleep(f.openLat)
	f.s.Opens++
	f.files[name] = nil
}

// Exists reports whether name exists.
func (f *PFS) Exists(name string) bool { _, ok := f.files[name]; return ok }

// Size returns the file's length.
func (f *PFS) Size(name string) (int64, error) {
	d, ok := f.files[name]
	if !ok {
		return 0, proto.ErrNoSuchFile
	}
	return int64(len(d)), nil
}

// WriteAt writes data at off, growing the file as needed, charging p the
// shared-pipe time.
func (f *PFS) WriteAt(p *simtime.Proc, name string, off int64, data []byte) error {
	d, ok := f.files[name]
	if !ok {
		return proto.ErrNoSuchFile
	}
	// Grow capacity geometrically: a sequential write of an n-byte file
	// copies O(n) bytes, not O(n²/len(data)). A file never shrinks in
	// place, so the bytes past len(d) are still zero.
	if end := off + int64(len(data)); int64(len(d)) < end {
		d = slices.Grow(d, int(end)-len(d))[:end]
	}
	copy(d[off:], data)
	f.files[name] = d
	f.xfer(p, int64(len(data)))
	f.s.Writes++
	f.s.BytesWritten += int64(len(data))
	return nil
}

// ReadAt fills buf from off, charging p the shared-pipe time.
func (f *PFS) ReadAt(p *simtime.Proc, name string, off int64, buf []byte) error {
	d, ok := f.files[name]
	if !ok {
		return proto.ErrNoSuchFile
	}
	if off+int64(len(buf)) > int64(len(d)) {
		return proto.ErrChunkOutOfRange
	}
	copy(buf, d[off:])
	f.xfer(p, int64(len(buf)))
	f.s.Reads++
	f.s.BytesRead += int64(len(buf))
	return nil
}

// Snapshot returns a copy of a file's content without charging time
// (experiment verification).
func (f *PFS) Snapshot(name string) ([]byte, error) {
	d, ok := f.files[name]
	if !ok {
		return nil, proto.ErrNoSuchFile
	}
	return append([]byte(nil), d...), nil
}

// Delete removes a file.
func (f *PFS) Delete(name string) { delete(f.files, name) }

// Stats returns a snapshot of the counters.
func (f *PFS) Stats() Stats { return f.s }

// ResetStats zeroes the counters.
func (f *PFS) ResetStats() { f.s = Stats{} }
