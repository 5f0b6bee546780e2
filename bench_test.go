// Benchmarks that regenerate every table and figure of the paper's
// evaluation section at Quick scale, reporting the headline metric of each
// artifact. Full-scale reports come from `go run ./cmd/nvmbench` (whose
// output is recorded in EXPERIMENTS.md).
package nvmalloc_test

import (
	"testing"

	"nvmalloc/internal/experiments"
)

// reportErr fails the benchmark on experiment error.
func reportErr(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig2StreamTriad regenerates Fig. 2: STREAM TRIAD bandwidth per
// array placement, normalized to DRAM.
func BenchmarkFig2StreamTriad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig2(experiments.Quick())
		reportErr(b, err)
		var worstLocal, worstRemote float64 = 1e18, 1e18
		for _, r := range rows {
			if r.Location == "Local-SSD" && r.MBps < worstLocal {
				worstLocal = r.MBps
			}
			if r.Location == "Remote-SSD" && r.MBps < worstRemote {
				worstRemote = r.MBps
			}
		}
		b.ReportMetric(rows[0].MBps/worstLocal, "local-gap-x")
		b.ReportMetric(rows[0].MBps/worstRemote, "remote-gap-x")
	}
}

// BenchmarkTable3StreamCache regenerates Table III: STREAM with vs without
// the NVMalloc cache layer.
func BenchmarkTable3StreamCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table3(experiments.Quick())
		reportErr(b, err)
		b.ReportMetric(rows[3].WithMBps, "triad-with-MB/s")
		b.ReportMetric(rows[3].WithoutMBps, "triad-without-MB/s")
	}
}

// BenchmarkFig3MatMul regenerates Fig. 3: the five-stage MM runtime across
// the eight run configurations.
func BenchmarkFig3MatMul(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig3(experiments.Quick())
		reportErr(b, err)
		dram := rows[0].Total.Seconds()
		l816 := rows[2].Total.Seconds()
		b.ReportMetric((l816-dram)/dram*100, "L-SSD(8:16:16)-vs-DRAM-%")
	}
}

// BenchmarkFig4SharedVsIndividual regenerates Fig. 4.
func BenchmarkFig4SharedVsIndividual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig4(experiments.Quick())
		reportErr(b, err)
		var s, ind float64
		for _, r := range rows {
			if r.Config == "L-SSD(8:16:16)" {
				if r.Mode == "S" {
					s = r.Total.Seconds()
				} else if r.Mode == "I" {
					ind = r.Total.Seconds()
				}
			}
		}
		b.ReportMetric((ind-s)/s*100, "individual-overhead-%")
	}
}

// BenchmarkFig5AccessPattern regenerates Fig. 5: row- vs column-major
// compute time.
func BenchmarkFig5AccessPattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig5(experiments.Quick())
		reportErr(b, err)
		for _, r := range rows {
			if r.Config == "L-SSD(8:16:16)" {
				b.ReportMetric(r.ColMajor.Seconds()/r.RowMajor.Seconds(), "col/row-x")
			}
		}
	}
}

// BenchmarkTable4TrafficVolumes regenerates Table IV: app/FUSE/SSD bytes.
func BenchmarkTable4TrafficVolumes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table4(experiments.Quick())
		reportErr(b, err)
		b.ReportMetric(float64(rows[1].SSDBytes)/float64(rows[0].SSDBytes), "col/row-SSD-x")
	}
}

// BenchmarkTable5TileSize regenerates Table V: compute time vs tile size.
func BenchmarkTable5TileSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table5(experiments.Quick())
		reportErr(b, err)
		first, last := rows[0], rows[len(rows)-1]
		b.ReportMetric(first.ColMajor.Seconds()/last.ColMajor.Seconds(), "col-tile-speedup-x")
	}
}

// BenchmarkFig6LargeProblem regenerates Fig. 6: the 8 GB-class problem.
func BenchmarkFig6LargeProblem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig6(experiments.Quick())
		reportErr(b, err)
		b.ReportMetric(rows[0].Total.Seconds(), "L-SSD(8:16:16)-s")
	}
}

// BenchmarkTable6Quicksort regenerates Table VI: the out-of-core sort.
func BenchmarkTable6Quicksort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table6(experiments.Quick())
		reportErr(b, err)
		b.ReportMetric(rows[1].Speedup, "L-SSD-speedup-x")
		b.ReportMetric(rows[2].Speedup, "R-SSD-speedup-x")
	}
}

// BenchmarkTable7WriteOptimization regenerates Table VII.
func BenchmarkTable7WriteOptimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table7(experiments.Quick())
		reportErr(b, err)
		b.ReportMetric(float64(rows[1].SSDBytes)/float64(rows[0].SSDBytes), "ssd-volume-saving-x")
	}
}

// BenchmarkCheckpoint regenerates the §IV-B-5 checkpoint study.
func BenchmarkCheckpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Checkpoint(experiments.Quick())
		reportErr(b, err)
		var linked, naive int64
		for _, r := range rows {
			if r.Mode == "linked+COW" {
				linked += r.Step.SSDWriteBytes
			} else {
				naive += r.Step.SSDWriteBytes
			}
		}
		b.ReportMetric(float64(naive)/float64(linked), "naive/linked-write-x")
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationReadahead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.AblationReadahead(experiments.Quick())
		reportErr(b, err)
	}
}

func BenchmarkAblationChunkSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.AblationChunkSize(experiments.Quick())
		reportErr(b, err)
	}
}

func BenchmarkAblationCacheSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.AblationCacheSize(experiments.Quick())
		reportErr(b, err)
	}
}

func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.AblationPlacement(experiments.Quick())
		reportErr(b, err)
	}
}
