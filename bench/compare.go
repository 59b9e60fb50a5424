package main

import (
	"fmt"
	"io"
	"sort"
)

// verdict is compare's judgement of one (workload, metric) pair.
type verdict struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians
	SpreadA, SpreadB       float64 // IQR as a share of the median
	Change                 float64 // how much worse B is than A, as a share of A (negative: better)
	Bound                  float64
	Regressed              bool
	Unresolved             bool // within the bound, but A's own spread is wider than the bound
}

// worsening is how far b is on the bad side of a, as a share of a.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		if (b > a) != d.Higher {
			return 1
		}
		return -1
	}
	if d.Higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies a metric's direction and bound to two sets of runs.
func judge(d metricDef, workload string, a, b []float64) verdict {
	v := verdict{Workload: workload, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
		A: median(a), B: median(b), SpreadA: iqrShare(a), SpreadB: iqrShare(b)}
	v.Change = worsening(d, v.A, v.B)
	v.Regressed = v.Change > d.Bound
	v.Unresolved = !v.Regressed && v.SpreadA > d.Bound
	return v
}

// failedShare is failed operations over attempted, across runs.
func failedShare(rs []result) float64 {
	var failed, attempted int64
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareResults judges every end-to-end metric on every workload both
// sides ran (untraced runs only) and reports whether B regressed: a
// metric beyond its bound, a higher failed share, or an incorrect run.
func compareResults(a, b []result, w io.Writer) bool {
	group := func(rs []result) map[string][]result {
		m := map[string][]result{}
		for _, r := range rs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	ga, gb := group(a), group(b)
	var names []string
	for name := range ga {
		if len(gb[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	regressed := len(names) == 0
	if regressed {
		fmt.Fprintln(w, "no workload has untraced runs on both sides")
	}
	fmt.Fprintf(w, "%-20s %-30s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "A median", "B median", "A iqr", "B iqr", "worse", "bound", "verdict")
	for _, name := range names {
		ra, rb := ga[name], gb[name]
		for _, d := range endToEnd {
			col := func(rs []result) []float64 {
				out := make([]float64, len(rs))
				for i, r := range rs {
					out[i] = r.Metrics[d.Name].Value
				}
				return out
			}
			v := judge(d, name, col(ra), col(rb))
			word := "ok"
			switch {
			case v.Regressed:
				word = "REGRESSION"
				regressed = true
			case v.Unresolved:
				word = "unresolved (spread wider than bound)"
			}
			fmt.Fprintf(w, "%-20s %-30s %12.4f %12.4f %7.2f%% %7.2f%% %+7.2f%% %6.2f%%  %s\n",
				name, d.Name, v.A, v.B, 100*v.SpreadA, 100*v.SpreadB, 100*v.Change, 100*v.Bound, word)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		word := "ok"
		if fb > fa {
			word = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-20s %-30s %12.6f %12.6f %44s\n", name, "failed share", fa, fb, word)
		for _, r := range rb {
			if !r.Correct {
				fmt.Fprintf(w, "%-20s seed %d of B is incorrect: %v\n", name, r.Seed, r.Notes)
				regressed = true
			}
		}
		fmt.Fprintf(w, "%-20s runs: A %d, B %d\n", name, len(ra), len(rb))
	}
	return regressed
}

// compareMain is `bench compare A.json B.json`: A is the reference.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: bench compare A.json B.json   (files written with --out; A is the reference)")
		return 2
	}
	a, err := readResults(args[0])
	if err == nil {
		var b []result
		if b, err = readResults(args[1]); err == nil {
			if compareResults(a, b, w) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(w, "bench compare:", err)
	return 2
}
