// nvmbench regenerates the paper's evaluation artifacts on the simulated
// testbed and prints them as text tables.
//
// Usage:
//
//	nvmbench [-quick] [-json file] [artifact ...]
//
// Artifacts: fig2 table3 fig3 fig4 fig5 table4 table5 fig6 table6 table7
// ckpt ablations devices all (default: all).
//
// -json additionally writes every regenerated table — id, title, columns,
// rows (bandwidth MB/s, timings, cache hit rates as reported per artifact),
// notes, and per-artifact wall time — as structured JSON, for CI artifact
// upload and regression diffing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"nvmalloc/internal/experiments"
	"nvmalloc/internal/obs"
)

// reportJSON mirrors experiments.Report for the -json output.
type reportJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// benchResult is one artifact's entry in the -json output.
type benchResult struct {
	Name    string       `json:"name"`
	WallNs  int64        `json:"wall_ns"`
	Reports []reportJSON `json:"reports"`
}

// benchHost identifies the machine a -json document was produced on, so
// archived runs from different CI runners or laptops are comparable.
type benchHost struct {
	Hostname  string `json:"hostname"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

// benchJSON is the top-level -json document.
type benchJSON struct {
	GeneratedUnixNanos int64  `json:"generated_unix_nanos"`
	GeneratedUTC       string `json:"generated_utc"`
	// GitRevision is the vcs revision the binary was built from ("-dirty"
	// when the worktree had local changes; "unknown" for non-vcs builds
	// such as `go run` from an exported tarball) — the same build identity
	// every daemon exports as the nvm_build_info metric, so archived runs
	// join against Prometheus scrapes on the revision label.
	GitRevision string        `json:"git_revision"`
	Host        benchHost     `json:"host"`
	Quick       bool          `json:"quick"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

func main() {
	quick := flag.Bool("quick", false, "run the shrunken Quick geometry instead of the default scaled evaluation")
	jsonPath := flag.String("json", "", "also write the results as structured JSON to this file")
	flag.Parse()

	o := experiments.Default()
	if *quick {
		o = experiments.Quick()
	}

	var cur *benchResult // artifact currently running (nil without -json)
	type runner func() error
	show := func(rep *experiments.Report, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(rep.String())
		if cur != nil {
			cur.Reports = append(cur.Reports, reportJSON{
				ID: rep.ID, Title: rep.Title, Columns: rep.Columns, Rows: rep.Rows, Notes: rep.Notes,
			})
		}
		return nil
	}
	runners := map[string]runner{
		"devices": func() error { return show(experiments.Devices(), nil) },
		"fig2": func() error {
			_, rep, err := experiments.Fig2(o)
			return show(rep, err)
		},
		"table3": func() error {
			_, rep, err := experiments.Table3(o)
			return show(rep, err)
		},
		"fig3": func() error {
			_, rep, err := experiments.Fig3(o)
			return show(rep, err)
		},
		"fig4": func() error {
			_, rep, err := experiments.Fig4(o)
			return show(rep, err)
		},
		"fig5": func() error {
			_, rep, err := experiments.Fig5(o)
			return show(rep, err)
		},
		"table4": func() error {
			_, rep, err := experiments.Table4(o)
			return show(rep, err)
		},
		"table5": func() error {
			_, rep, err := experiments.Table5(o)
			return show(rep, err)
		},
		"fig6": func() error {
			_, rep, err := experiments.Fig6(o)
			return show(rep, err)
		},
		"table6": func() error {
			_, rep, err := experiments.Table6(o)
			return show(rep, err)
		},
		"table7": func() error {
			_, rep, err := experiments.Table7(o)
			return show(rep, err)
		},
		"ckpt": func() error {
			_, rep, err := experiments.Checkpoint(o)
			return show(rep, err)
		},
		"ablations": func() error {
			for _, fn := range []func(experiments.Opts) (*experiments.Report, error){
				experiments.AblationReadahead,
				experiments.AblationChunkSize,
				experiments.AblationCacheSize,
				experiments.AblationPlacement,
			} {
				if err := show(fn(o)); err != nil {
					return err
				}
			}
			return nil
		},
	}
	order := []string{"devices", "fig2", "table3", "fig3", "fig4", "fig5", "table4", "table5", "fig6", "table6", "table7", "ckpt", "ablations"}

	args := flag.Args()
	if len(args) == 0 || (len(args) == 1 && args[0] == "all") {
		args = order
	}
	var doc benchJSON
	doc.Quick = *quick
	for _, name := range args {
		fn, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "nvmbench: unknown artifact %q (want one of %v)\n", name, order)
			os.Exit(2)
		}
		if *jsonPath != "" {
			doc.Benchmarks = append(doc.Benchmarks, benchResult{Name: name})
			cur = &doc.Benchmarks[len(doc.Benchmarks)-1]
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "nvmbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		if cur != nil {
			cur.WallNs = wall.Nanoseconds()
		}
		fmt.Printf("(%s regenerated in %.1fs wall time)\n\n", name, wall.Seconds())
	}
	if *jsonPath != "" {
		now := time.Now()
		doc.GeneratedUnixNanos = now.UnixNano()
		doc.GeneratedUTC = now.UTC().Format(time.RFC3339)
		doc.GitRevision = obs.BuildRevision()
		host, _ := os.Hostname()
		doc.Host = benchHost{
			Hostname:  host,
			OS:        runtime.GOOS,
			Arch:      runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
			GoVersion: runtime.Version(),
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(fmt.Errorf("nvmbench: encoding -json: %w", err))
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fatal(fmt.Errorf("nvmbench: writing %s: %w", *jsonPath, err))
		}
		fmt.Printf("(results written to %s)\n", *jsonPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
