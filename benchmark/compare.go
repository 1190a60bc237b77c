package main

import (
	"fmt"
	"io"
)

// The noise-aware diff: one row per workload and end-to-end metric, with
// both medians, both pairs of quartiles, the bound and a verdict.

// worsening is how far b is worse than a, as a share of a; negative when b
// is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict compares the runs of one metric on one workload. The change is
// unresolved when either side's run-to-run spread (quartile distance over
// median) exceeds the bound; worse when the new median is worse by more
// than the bound; better when it is better by more than both spreads.
func verdict(d metricDef, old, cur []float64) string {
	so, sn := spread(old), spread(cur)
	w := worsening(d, median(old), median(cur))
	switch {
	case so > d.Bound || sn > d.Bound:
		return "unresolved"
	case w > d.Bound:
		return "worse"
	case -w > max(so, sn) && -w > d.Bound/2:
		return "better"
	}
	return "same"
}

func describeRuns(xs []float64) string {
	if len(xs) == 0 {
		return fmt.Sprintf("%32s", "no runs")
	}
	q1, q3 := xs[0], xs[0]
	if len(xs) > 1 {
		q1, q3 = quartiles(xs)
	}
	return fmt.Sprintf("%10.5g [%9.5g %9.5g]", median(xs), q1, q3)
}

// compare prints the diff of two results files and reports whether any
// metric got worse.
func compare(out io.Writer, oldPath, newPath string) (worse bool, err error) {
	old, err := loadResults(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-13s %-32s %4s %-32s %4s %-32s %6s %7s  %s\n",
		"workload", "metric", "n", "old median [q1 q3]", "n", "new median [q1 q3]", "bound", "change", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := old.values(w.name, d.Name), cur.values(w.name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(d, a, b)
			worse = worse || v == "worse"
			change := 0 - 100*worsening(d, median(a), median(b)) // positive is better; 0 - x avoids "-0.0"
			fmt.Fprintf(out, "%-13s %-32s %4d %s %4d %s %5.0f%% %+6.1f%%  %s\n", w.name, d.Name,
				len(a), describeRuns(a), len(b), describeRuns(b), 100*d.Bound,
				change, v)
		}
	}
	return worse, nil
}
