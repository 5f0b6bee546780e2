package experiments

import (
	"testing"
	"time"
)

// The simulator's wall time per repetition of the two experiments sim-mm
// runs — the local row of that workload (make sim-bench). Virtual-time
// results do not depend on it; the CPU cost of an event and a resident
// page does.

func BenchmarkSimFig3Quick(b *testing.B) {
	benchSim(b, func() error { _, _, err := Fig3(Quick()); return err })
}

func BenchmarkSimTable7Quick(b *testing.B) {
	benchSim(b, func() error { _, _, err := Table7(Quick()); return err })
}

func benchSim(b *testing.B, run func() error) {
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(time.Since(start).Seconds()/float64(b.N), "s/rep")
}
