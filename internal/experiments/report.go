// Package experiments regenerates every table and figure of the paper's
// evaluation section (§IV) on the simulated testbed: one runner per
// artifact, each returning typed rows plus a formatted text report. The
// cmd/nvmbench tool and the repository's benchmark suite drive these
// runners; EXPERIMENTS.md records their output against the paper's
// numbers.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"nvmalloc/internal/sysprof"
)

// Report is a rendered experiment artifact.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends one row.
func (r *Report) Add(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Note appends a free-form note line.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Opts sizes the experiments. Default() reproduces the scaled evaluation;
// Quick() shrinks everything for tests and smoke runs.
type Opts struct {
	// Matrix multiplication (Figs. 3–6, Tables IV–V).
	MatrixN        int
	LargeMatrixN   int
	MMComputeScale float64
	Tile           int
	TileSizes      []int

	// STREAM (Fig. 2, Table III).
	StreamArrayBytes int64
	StreamIters      int

	// Sort (Table VI).
	SortBytes int64

	// Random writes (Table VII).
	RandWrites      int
	RandRegionBytes int64

	// Checkpointing (§IV-B-5).
	CkptNVMBytes  int64
	CkptDRAMBytes int64
	CkptSteps     int
	CkptDirty     float64

	// Wire framing benchmark (NVM1 on loopback TCP).
	WireBytes int64
}

// Default returns the 1/256-scaled evaluation geometry: 2 GB matrices
// become 8 MiB (N: 16384 → 1024, so MMComputeScale = 1/16 keeps the
// compute:I/O ratio), the 200 GB sort becomes 100 MiB against a 96 MiB
// aggregate memory, and the 2 GB random-write region becomes 8 MiB.
func Default() Opts {
	return Opts{
		MatrixN:        1024,
		LargeMatrixN:   2048,
		MMComputeScale: 1.0 / 16,
		Tile:           32,
		TileSizes:      []int{8, 16, 32, 64, 128},

		StreamArrayBytes: 8 * sysprof.MiB,
		StreamIters:      10,

		SortBytes: 100 * sysprof.MiB,

		RandWrites:      131072,
		RandRegionBytes: 8 * sysprof.MiB,

		CkptNVMBytes:  8 * sysprof.MiB,
		CkptDRAMBytes: 2 * sysprof.MiB,
		CkptSteps:     5,
		CkptDirty:     0.1,

		WireBytes: 32 * sysprof.MiB,
	}
}

// Quick returns a shrunken geometry for tests (same shapes, ~10x faster).
func Quick() Opts {
	o := Default()
	// B (N²·8 = 4.5 MiB) must still exceed the 2 MiB FUSE cache severalfold
	// for the locality experiments, and the large problem must exceed node
	// DRAM to make Fig. 6's point.
	o.MatrixN = 768
	o.LargeMatrixN = 1536
	o.MMComputeScale = 1.0 / 32
	o.TileSizes = []int{8, 16, 32, 64}
	o.StreamArrayBytes = 2 * sysprof.MiB
	o.StreamIters = 3
	o.SortBytes = 16 * sysprof.MiB
	o.RandWrites = 8192
	o.RandRegionBytes = 2 * sysprof.MiB
	o.CkptNVMBytes = 2 * sysprof.MiB
	o.CkptDRAMBytes = 256 * sysprof.KiB
	o.CkptSteps = 3
	o.WireBytes = 8 * sysprof.MiB
	return o
}

// mmProfile returns the bench profile with the matrix compute scaling.
// The FUSE cache grows to 64 chunks: at bench scale a 32 KiB chunk spans
// 4-8 matrix rows (the paper's 256 KiB chunk spans 2 of its rows), so the
// per-rank tile working sets need proportionally more chunks to fit —
// matching the paper's cache:working-set headroom, while B still exceeds
// the cache severalfold (the Table IV / Fig. 5 premise).
func (o Opts) mmProfile() sysprof.Profile {
	p := sysprof.Bench()
	p.ComputeScale = o.MMComputeScale
	p.FUSECacheSize = 2 * sysprof.MiB
	return p
}

// sortProfile shrinks node memory so the sort dataset exceeds the
// machine's aggregate DRAM by the paper's ~1.56x (200 GB data vs 128 GB
// memory), whatever the configured dataset size.
func (o Opts) sortProfile() sysprof.Profile {
	p := sysprof.Bench()
	p.SystemReserve = 4 * sysprof.MiB
	avail := int64(float64(o.SortBytes) / 1.5625 / 16) // per node
	p.DRAMPerNode = p.SystemReserve + avail
	return p
}

func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }
func mbps(v float64) string       { return fmt.Sprintf("%.1f", v) }
func mib(n int64) string          { return fmt.Sprintf("%.1f", float64(n)/float64(sysprof.MiB)) }
func ratio(a, b float64) string   { return fmt.Sprintf("%.2fx", a/b) }
func pct(a, b time.Duration) string {
	return fmt.Sprintf("%+.2f%%", (a.Seconds()-b.Seconds())/b.Seconds()*100)
}
