package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func loadSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf setFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sf.Schema != setSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, sf.Schema, setSchema)
	}
	return &sf, nil
}

// verdict of one metric × workload pair.
const (
	vOK         = "ok"
	vBetter     = "better"
	vRegression = "REGRESSION"
	vUnresolved = "unresolved"
)

// judge applies d's bound to base → cand, direction-aware. The pair is a
// regression when cand's median is worse than base's by more than the
// bound. Where the run-to-run spread (interquartile range over median, the
// wider of the two sides) exceeds the bound the medians decide nothing:
// the pair is unresolved, unless every run of one side beats every run of
// the other.
func judge(d metricDef, base, cand []float64) (verdict string, worse, spread float64) {
	worseThan := func(a, b float64) bool { // a worse than b
		if d.Better == "higher" {
			return a < b
		}
		return a > b
	}
	mb, mc := median(base), median(cand)
	if mb != 0 {
		worse = (mc - mb) / mb
		if d.Better == "higher" {
			worse = -worse
		}
	}
	for _, side := range [][]float64{base, cand} {
		if m := median(side); len(side) >= 2 && m != 0 {
			q1, q3 := quartiles(side)
			spread = max(spread, (q3-q1)/m)
		}
	}
	allWorse, allBetter := true, true
	for _, c := range cand {
		for _, b := range base {
			allWorse = allWorse && worseThan(c, b)
			allBetter = allBetter && worseThan(b, c)
		}
	}
	switch {
	case spread > d.Bound && allBetter:
		return vBetter, worse, spread
	case spread > d.Bound && !(allWorse && worse > d.Bound):
		return vUnresolved, worse, spread
	case worse > d.Bound:
		return vRegression, worse, spread
	case worse < -d.Bound:
		return vBetter, worse, spread
	}
	return vOK, worse, spread
}

// cmdCompare prints one row per end-to-end metric × workload of two set
// files (base, then candidate) and fails on any regression, or on any
// failed op in the candidate.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: nvmperf compare base.json candidate.json")
	}
	base, err := loadSet(args[0])
	if err != nil {
		return err
	}
	cand, err := loadSet(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("base %s (rev %s, seed %d)   candidate %s (rev %s, seed %d)\n",
		args[0], base.GitRevision, base.Seed, args[1], cand.GitRevision, cand.Seed)
	return compareSets(base, cand)
}

// compareSets judges every end-to-end metric × workload the benchmark
// defines. Two sets are comparable only when both measured the same amount
// of work and both hold every pair: a pair missing from a set is an error,
// not a pass.
func compareSets(base, cand *setFile) error {
	if base.Seconds != cand.Seconds {
		return fmt.Errorf("the sets measured different work: --seconds %d and %d", base.Seconds, cand.Seconds)
	}
	fmt.Printf("%-12s %-18s %5s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "base", "candidate", "worse", "spread", "bound", "verdict")
	regressions := 0
	for _, w := range workloadDefs {
		bv, cv := base.values(w.Name, 0), cand.values(w.Name, 0)
		for _, d := range endToEnd {
			b, c := bv[d.Name], cv[d.Name]
			if len(b) == 0 || len(c) == 0 {
				return fmt.Errorf("%s %s: %d runs in the base set, %d in the candidate", w.Name, d.Name, len(b), len(c))
			}
			verdict, worse, spread := judge(d, b, c)
			if verdict == vRegression {
				regressions++
			}
			fmt.Printf("%-12s %-18s %5s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				w.Name, d.Name, d.Unit, median(b), median(c), 100*worse, 100*spread, 100*d.Bound, verdict, len(b), len(c))
		}
		bf, ba := base.failedOps(w.Name)
		cf, ca := cand.failedOps(w.Name)
		verdict := vOK
		if cf > 0 {
			verdict = vRegression
			regressions++
		}
		fmt.Printf("%-12s %-18s %5s %14s %14s %8s %8s %6s  %s\n", w.Name, "failed_ops_ratio", "",
			fmt.Sprintf("%d/%d", bf, ba), fmt.Sprintf("%d/%d", cf, ca), "", "", "0", verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}
