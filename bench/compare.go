package main

import (
	"fmt"
	"math"
)

// minPairs and winShare are the pairing rule for claiming a gain: at least
// ten alternating pairs of runs, the change better in nine tenths of them.
const (
	minPairs = 10
	winShare = 0.9
)

// setupFloor is the absolute change in setup_s below which a difference does
// not count: a few milliseconds of process start-up is noise, not a change.
const setupFloor = 0.005

// compareMain prints, for each workload and end-to-end metric, the medians
// and quartiles of the untraced runs in two results files and a verdict.
// Runs pair up in file order, so record them alternating between commits.
func compareMain(pathA, pathB string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-14s %12s %25s %12s %25s  %s\n", "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Printf("%-12s %-14s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g  %s\n",
				w.Name, m.Name, median(va), a1, a3, median(vb), b1, b3, verdict(m, va, vb))
		}
	}
	return nil
}

func values(f *resultsFile, workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			if mv, ok := r.Metrics[metric]; ok {
				v = append(v, mv.Value)
			}
		}
	}
	return v
}

// verdict applies the bound and the pairing rule to A (the parent) and B
// (the change):
//   - unresolved: either side's quartile spread, as a share of its median,
//     is wider than the bound, unless every B run beats every A run;
//   - regressed: B's median is worse than A's by more than the bound;
//   - improved: B's median is better by more than A's quartile spread and B
//     wins at least nine tenths of at least ten pairs;
//   - unchanged: otherwise.
func verdict(m metricSpec, a, b []float64) string {
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	a1, a3 := quartiles(a)
	b1, b3 := quartiles(b)
	if m.Unit == "s" && math.Abs(mb-ma) < setupFloor {
		return "unchanged"
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	if ((a3-a1)/ma > m.Bound || (b3-b1)/mb > m.Bound) && !allBetter {
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "regressed"
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if better(mb, ma) && math.Abs(mb-ma) > a3-a1 && pairs >= minPairs && float64(wins) >= winShare*float64(pairs) {
		return "improved"
	}
	return "unchanged"
}
