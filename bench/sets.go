package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nvmalloc/internal/obs"
)

// setFile is what `nvmperf run` writes per set and `nvmperf compare`
// reads: the environment the numbers were taken in, and every run's
// result as the one-run form printed it.
type setFile struct {
	Schema      string      `json:"schema"`
	Geometry    string      `json:"geometry"`
	NProc       int         `json:"nproc"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	GoVersion   string      `json:"go_version"`
	GitRevision string      `json:"git_revision"`
	Time        string      `json:"time_utc"`
	Seed        uint64      `json:"seed"`
	Seconds     int         `json:"seconds"`
	Runs        []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Run      int     `json:"run"`
	WallS    float64 `json:"process_wall_s"`
	Result   result  `json:"result"`
}

const setSchema = "nvmperf/1"

// cmdRun measures every workload: per set, -runs untraced runs (the
// end-to-end metrics) and one traced run (the per-layer metrics) of each.
// Every run is a child process — the one-run form of this binary — so
// peak_rss_MB belongs to one workload and sets share nothing.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("nvmperf run", flag.ContinueOnError)
	sets := fs.Int("sets", 1, "sets to measure; each goes to <out>/set-<k>.json")
	runs := fs.Int("runs", 1, "untraced runs of each workload per set (compare needs ≥ 2 for a spread)")
	seed := fs.Uint64("seed", 1, "seed of the op generators")
	seconds := fs.Int("seconds", defaultSeconds, "seconds of work per run on the reference box")
	out := fs.String("out", "bench/out", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	failed := false
	for k := 1; k <= *sets; k++ {
		sf := setFile{
			Schema: setSchema, Geometry: geometry, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GitRevision: obs.BuildRevision(),
			Time: time.Now().UTC().Format(time.RFC3339), Seed: *seed, Seconds: *seconds,
		}
		for _, w := range workloadDefs {
			name := w.Name
			for mode := 0; mode <= 1; mode++ {
				n := *runs
				if mode == 1 {
					n = 1
				}
				for r := 1; r <= n; r++ {
					rec, err := runChild(exe, name, *seed, *seconds, mode, *out)
					if err != nil {
						return fmt.Errorf("%s trace=%d: %w", name, mode, err)
					}
					rec.Run = r
					sf.Runs = append(sf.Runs, rec)
					failed = failed || !rec.Result.Correct
				}
			}
			printWorkload(&sf, name)
		}
		path := filepath.Join(*out, "set-"+strconv.Itoa(k)+".json")
		data, err := json.MarshalIndent(&sf, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("set %d of %d (%s, rev %s, nproc %d, GOMAXPROCS %d, %s) → %s\n\n",
			k, *sets, geometry, sf.GitRevision, sf.NProc, sf.GOMAXPROCS, sf.GoVersion, path)
	}
	if failed {
		return errChecksFailed
	}
	return nil
}

// runChild runs the one-run form as a child process and parses the JSON
// object on the last line of its output.
func runChild(exe, name string, seed uint64, seconds, trace int, out string) (runRecord, error) {
	rec := runRecord{Workload: name, Trace: trace}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--out", out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t := time.Now()
	err := cmd.Run()
	rec.WallS = time.Since(t).Seconds()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if perr := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); perr != nil {
		if err != nil {
			return rec, err
		}
		return rec, fmt.Errorf("last output line is not a result: %w", perr)
	}
	// A child that printed a result and then exited non-zero failed its
	// output checks; the result says so (correct = false).
	return rec, nil
}

// values returns metric name → the values of every run of (workload,
// trace mode) in the set.
func (sf *setFile) values(workload string, trace int) map[string][]float64 {
	v := map[string][]float64{}
	for _, r := range sf.Runs {
		if r.Workload == workload && r.Trace == trace {
			for name, m := range r.Result.Metrics {
				v[name] = append(v[name], m.Value)
			}
		}
	}
	return v
}

func (sf *setFile) failedOps(workload string) (failed, attempted int64) {
	for _, r := range sf.Runs {
		if r.Workload == workload {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	return
}

// printWorkload prints every metric of one workload by name with its unit
// (the median, where a set holds several runs).
func printWorkload(sf *setFile, name string) {
	failed, attempted := sf.failedOps(name)
	fmt.Printf("%s   failed_ops_ratio %d/%d\n", name, failed, attempted)
	for _, w := range workloadDefs {
		if w.Name == name {
			fmt.Printf("  primary op: %s; secondary op: %s; ops: %s\n", w.Primary, w.Secondary, w.Ops)
		}
	}
	for mode, defs := range [][]metricDef{endToEnd, perLayer} {
		vals := sf.values(name, mode)
		for _, d := range defs {
			if v, ok := vals[d.Name]; ok {
				fmt.Printf("  %-34s %16.4f %s\n", d.Name, median(v), d.Unit)
			}
		}
	}
}
