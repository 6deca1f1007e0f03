package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the spread criterion is stated in. It
// needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// untraced collects, per workload and end-to-end metric, the values of a
// result file's untraced runs, plus the workload's failed share.
func untraced(f *ResultFile) (values map[string]map[string][]float64, failed map[string]float64) {
	values, failed = map[string]map[string][]float64{}, map[string]float64{}
	attempted, bad := map[string]int{}, map[string]int{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
		attempted[r.Workload] += r.Attempted
		bad[r.Workload] += r.Failed
	}
	for w, n := range attempted {
		failed[w] = float64(bad[w]) / float64(max(n, 1))
	}
	return values, failed
}

// verdict judges B against A on one metric: worse when B's median is worse
// than A's by more than the bound; unresolved when either side's own spread
// is wider than the bound, unless every run of B reads better than every
// run of A. Fewer than four runs a side say nothing about spread (the
// quartiles of two values lie outside them), so then the medians decide.
func verdict(d MetricDecl, a, b []float64) string {
	lower := d.Better == "lower"
	ma, mb := median(a), median(b)
	worse := mb > ma*(1+d.Bound)
	if !lower {
		worse = mb < ma*(1-d.Bound)
	}
	if len(a) >= 4 && len(b) >= 4 && (spread(a) > d.Bound || spread(b) > d.Bound) {
		allBetter := quantile(b, 1) < quantile(a, 0)
		if !lower {
			allBetter = quantile(b, 0) > quantile(a, 1)
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse {
		return "worse"
	}
	return "ok"
}

// compareCmd prints, for every (workload, end-to-end metric) pair, both
// medians, the ratio B/A with its base, the bound and the verdict; it
// returns non-zero on any `worse`.
func compareCmd(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var files [2]ResultFile
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark compare: %s: %v\n", path, err)
			return 2
		}
	}
	va, fa := untraced(&files[0])
	vb, fb := untraced(&files[1])
	fmt.Printf("A: %s  commit %s  seed %d  %gs\n", args[0], files[0].Header.Commit, files[0].Header.Seed, files[0].Header.Seconds)
	fmt.Printf("B: %s  commit %s  seed %d  %gs\n", args[1], files[1].Header.Commit, files[1].Header.Seed, files[1].Header.Seconds)
	fmt.Printf("%-13s %-16s %14s %14s %22s %7s  %s\n", "workload", "metric", "A (median)", "B (median)", "B/A", "bound", "verdict")
	rc := 0
	for _, w := range workloadNames {
		if va[w] == nil || vb[w] == nil {
			fmt.Printf("%-13s missing from one side\n", w)
			rc = 1
			continue
		}
		for _, d := range endToEnd {
			a, b := va[w][d.Name], vb[w][d.Name]
			ma, mb := median(a), median(b)
			v := verdict(d, a, b)
			if v == "worse" {
				rc = 1
			}
			fmt.Printf("%-13s %-16s %14.6g %14.6g %10.4f of %-9.5g %6.0f%%  %s (n=%d,%d spread %.3f,%.3f)\n",
				w, d.Name, ma, mb, mb/ma, ma, 100*d.Bound, v, len(a), len(b), spread(a), spread(b))
		}
		v := "ok"
		if fb[w] > fa[w]+failedShareBound {
			v, rc = "worse", 1
		}
		fmt.Printf("%-13s %-16s %14.6f %14.6f %22s %7s  %s\n", w, "failed_share", fa[w], fb[w], "absolute", fmt.Sprint(failedShareBound), v)
	}
	return rc
}
