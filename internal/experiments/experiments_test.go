package experiments

import (
	"strings"
	"testing"
)

// The experiment tests run at Quick() scale and assert the qualitative
// shapes the paper reports — who wins, roughly by how much, where the
// crossovers are. Full-scale numbers live in EXPERIMENTS.md (generated by
// cmd/nvmbench). Each runs its own engine on virtual time and shares no
// package state, so they run in parallel without moving a number.

// skipIfShort gates the paper-scale experiment sweeps out of short CI runs:
// even at Quick() scale they are CPU-minutes under the race detector. The
// nightly full `make check` still runs them.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode (runs in the nightly full suite)")
	}
}

func TestFig2Shape(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	rows, rep, err := Fig2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	if rows[0].Arrays != "None" || rows[0].Normalized != 100 {
		t.Fatal("baseline row malformed")
	}
	var worstLocal, worstRemote float64 = 1e18, 1e18
	for _, r := range rows[1:] {
		if r.Normalized >= 100 {
			t.Fatalf("%s on %s reached %.1f%% of DRAM — SSD placements must lose", r.Arrays, r.Location, r.Normalized)
		}
		if r.Location == "Local-SSD" && r.Normalized < worstLocal {
			worstLocal = r.Normalized
		}
		if r.Location == "Remote-SSD" && r.Normalized < worstRemote {
			worstRemote = r.Normalized
		}
	}
	// Paper: factors of ~62 (local) and ~115 (remote); require at least
	// order-10 gaps with remote worse than local.
	if worstLocal > 10 {
		t.Fatalf("local-SSD worst case %.2f%% of DRAM — gap too small (paper: ~1.6%%)", worstLocal)
	}
	if worstRemote >= worstLocal {
		t.Fatalf("remote (%.2f%%) should be worse than local (%.2f%%)", worstRemote, worstLocal)
	}
}

func TestTable3Shape(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	rows, rep, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	for _, r := range rows {
		if r.WithMBps <= r.WithoutMBps {
			t.Fatalf("%s: NVMalloc %.1f MB/s should beat direct SSD %.1f MB/s (paper Table III)",
				r.Kernel, r.WithMBps, r.WithoutMBps)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	rows, rep, err := Fig3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	byName := map[string]Fig3Row{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	dram := byName["DRAM(2:16:0)"].Total
	l216 := byName["L-SSD(2:16:16)"].Total
	l816 := byName["L-SSD(8:16:16)"].Total
	l88 := byName["L-SSD(8:8:8)"].Total
	r88 := byName["R-SSD(8:8:8)"].Total
	r881 := byName["R-SSD(8:8:1)"].Total

	// Paper: L-SSD(2:16:16) within a few percent of DRAM (+2.19%).
	if d := (l216.Seconds() - dram.Seconds()) / dram.Seconds(); d > 0.25 || d < -0.25 {
		t.Errorf("L-SSD(2:16:16) differs from DRAM by %+.1f%%, paper: +2.19%%", d*100)
	}
	// Paper: 8 procs/node with NVMalloc beats DRAM-only by ~53.75%.
	if l816 >= dram {
		t.Errorf("L-SSD(8:16:16) %v should beat DRAM %v decisively", l816, dram)
	}
	// Paper: remote ≈ local (1.42% overhead).
	if d := (r88.Seconds() - l88.Seconds()) / l88.Seconds(); d > 0.25 || d < -0.10 {
		t.Errorf("R-SSD(8:8:8) differs from L-SSD(8:8:8) by %+.1f%%, paper: +1.42%%", d*100)
	}
	// Paper: even one SSD serving 8 nodes beats DRAM-only on half the
	// nodes (-32.47%).
	if r881 >= dram {
		t.Errorf("R-SSD(8:8:1) %v should still beat DRAM %v (paper: -32.47%%)", r881, dram)
	}
}

func TestFig4Shape(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	rows, rep, err := Fig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	shared := map[string]float64{}
	for _, r := range rows {
		if r.Mode == "S" {
			shared[r.Config] = r.Total.Seconds()
		}
	}
	var dram float64
	for _, r := range rows {
		if r.Mode == "-" {
			dram = r.Total.Seconds()
		}
	}
	for _, r := range rows {
		if r.Mode != "I" {
			continue
		}
		s := shared[r.Config]
		if r.Total.Seconds() < s {
			t.Errorf("%s: individual %.3fs faster than shared %.3fs", r.Config, r.Total.Seconds(), s)
		}
		// Paper: up to 18% slower. Our benefactors serve every cold read
		// from the SSD (no server-side page cache), which prices the
		// 128 private copies of B more steeply — see EXPERIMENTS.md. The
		// qualitative conclusion (prefer shared mappings; individual mode
		// remains functional) must hold.
		if r.Total.Seconds() > 4*s {
			t.Errorf("%s: individual %.3fs more than 4x shared %.3fs", r.Config, r.Total.Seconds(), s)
		}
	}
	if dram == 0 {
		t.Fatal("missing DRAM baseline row")
	}
}

func TestFig5AndTable4Shape(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	o := Quick()
	rows, rep, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	for _, r := range rows {
		if r.Config == "DRAM(2:16:0)" {
			continue
		}
		if r.ColMajor <= r.RowMajor {
			t.Errorf("%s: column-major %v should exceed row-major %v", r.Config, r.ColMajor, r.RowMajor)
		}
	}
	// Column-major degrades as benefactors shrink; row-major stays stable.
	byName := map[string]Fig5Row{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	if c8, c1 := byName["R-SSD(8:8:8)"], byName["R-SSD(8:8:1)"]; c1.ColMajor <= c8.ColMajor {
		t.Errorf("column-major should degrade with fewer benefactors: 8 bens %v vs 1 ben %v", c8.ColMajor, c1.ColMajor)
	} else if rowDrift := c1.RowMajor.Seconds() / c8.RowMajor.Seconds(); rowDrift > 2 {
		t.Errorf("row-major should stay roughly stable, drifted %.2fx", rowDrift)
	}

	t4, rep4, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep4.String())
	row, col := t4[0], t4[1]
	if col.SSDBytes <= 2*row.SSDBytes {
		t.Errorf("column-major SSD volume %d should dwarf row-major %d", col.SSDBytes, row.SSDBytes)
	}
	if row.SSDBytes > row.FuseBytes {
		t.Errorf("row-major: cache should absorb traffic (SSD %d > FUSE %d)", row.SSDBytes, row.FuseBytes)
	}
}

func TestTable5Shape(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	rows, rep, err := Table5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	first, last := rows[0], rows[len(rows)-1]
	if last.ColMajor >= first.ColMajor {
		t.Errorf("column-major should improve with tile size: tile %d -> %v, tile %d -> %v",
			first.Tile, first.ColMajor, last.Tile, last.ColMajor)
	}
	// Row-major is insensitive (paper: no significant improvement).
	if drift := last.RowMajor.Seconds() / first.RowMajor.Seconds(); drift > 1.5 || drift < 0.5 {
		t.Errorf("row-major drifted %.2fx across tiles; paper reports insensitivity", drift)
	}
}

func TestFig6Shape(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	rows, rep, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Total <= 0 {
			t.Fatalf("%s: no time", r.Config)
		}
	}
}

func TestTable6Shape(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	rows, rep, err := Table6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	if rows[0].Passes != 2 || rows[1].Passes != 1 || rows[2].Passes != 1 {
		t.Fatalf("pass counts wrong: %+v", rows)
	}
	// Paper: L-SSD decisively faster than the two-pass DRAM baseline
	// (quoted at ~10x; our conservative cold-read store model yields ~2x —
	// see EXPERIMENTS.md). R-SSD runs on half the nodes with triple the
	// NVM share and lands below L-SSD.
	if rows[1].Speedup < 1.3 {
		t.Errorf("L-SSD speedup %.2fx too small (paper: ~10x, expected >=1.3x here)", rows[1].Speedup)
	}
	if !(rows[2].Speedup > 0.4 && rows[2].Speedup < rows[1].Speedup) {
		t.Errorf("R-SSD speedup %.2fx should be below L-SSD (%.2fx) but functional", rows[2].Speedup, rows[1].Speedup)
	}
}

func TestTable7Shape(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	rows, rep, err := Table7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	opt, noOpt := rows[0], rows[1]
	if noOpt.SSDBytes < 8*opt.SSDBytes {
		t.Errorf("optimization should collapse SSD volume: %d vs %d (paper: 38x)", opt.SSDBytes, noOpt.SSDBytes)
	}
	// FUSE volume is mode-independent (page-granular either way).
	r := float64(opt.FuseBytes) / float64(noOpt.FuseBytes)
	if r < 0.9 || r > 1.1 {
		t.Errorf("FUSE volumes should match across modes: %d vs %d", opt.FuseBytes, noOpt.FuseBytes)
	}
}

func TestCheckpointShape(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	rows, rep, err := Checkpoint(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	var linked, naive int64
	for _, r := range rows {
		if r.Mode == "linked+COW" {
			linked += r.Step.SSDWriteBytes
		} else {
			naive += r.Step.SSDWriteBytes
		}
	}
	if naive < 2*linked {
		t.Errorf("naive checkpoint volume %d should dwarf linked %d", naive, linked)
	}
}

func TestAblationsRun(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	o := Quick()
	for name, fn := range map[string]func(Opts) (*Report, error){
		"readahead": AblationReadahead,
		"chunk":     AblationChunkSize,
		"cache":     AblationCacheSize,
		"placement": AblationPlacement,
	} {
		rep, err := fn(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("%s: empty report", name)
		}
		t.Log("\n" + rep.String())
	}
}

func TestDevicesReport(t *testing.T) {
	t.Parallel()
	rep := Devices()
	if len(rep.Rows) != 4 {
		t.Fatalf("device rows = %d, want 4 (Table I)", len(rep.Rows))
	}
	if !strings.Contains(rep.String(), "Intel X25-E") {
		t.Fatal("missing testbed SSD")
	}
}
