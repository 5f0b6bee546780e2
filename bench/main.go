// Command nvmperf is the repository's performance benchmark: five named
// workloads driven through the public entry points against an in-process
// loopback cluster (geometry g2s3b-r2), every byte read back checked, every
// metric printed by name with its unit. BENCHMARK.json at the repository
// root is its contract; README.md in this directory explains the workloads,
// the metrics and the trace files.
//
//	nvmperf --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//	nvmperf run [-sets K] [-runs R] [-seed N] [-seconds S]   every workload, both modes
//	nvmperf compare a.json b.json                            apply the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = cmdRun(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = cmdCompare(args[1:])
	default:
		err = cmdOne(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmperf:", err)
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// errChecksFailed makes the process exit non-zero after it printed a
// result whose output checks failed.
var errChecksFailed = fmt.Errorf("output checks failed")

// cmdOne is the form BENCHMARK.json's command runs: one workload, one
// mode, one JSON object as the last line of standard output.
func cmdOne(args []string) error {
	fs := flag.NewFlagSet("nvmperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed of the op generators")
	seconds := fs.Int("seconds", defaultSeconds, "seconds of work on the reference box")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := fs.String("out", "bench/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	var res *result
	var err error
	if *trace != 0 {
		res, err = runTraced(*name, *seed, *seconds, *out)
	} else {
		res, err = runEndToEnd(*name, *seed, *seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errChecksFailed
	}
	return nil
}
