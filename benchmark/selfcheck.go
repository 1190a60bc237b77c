package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// selfcheck shows that the benchmark agrees with itself: six full
// invocations (every workload, untraced, a different seed each), assigned
// alternately to set A and set B, and for every workload and end-to-end
// metric the two set medians may differ by at most half the metric's bound.
// A metric that cannot meet this is demoted to per-layer, never given a
// wider bound. The table goes to out and to out/selfcheck.txt.
func selfcheck(out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2]string{"out/selfcheck-A.json", "out/selfcheck-B.json"}
	for _, p := range sets {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	const invocations = 6
	for i := 0; i < invocations; i++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.Itoa(1000+i), "-out", sets[i%2])
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil { // Run waits for the child to end
				return fmt.Errorf("invocation %d of %s: %w", i, w.name, err)
			}
		}
	}
	a, err := loadResults(sets[0])
	if err != nil {
		return err
	}
	b, err := loadResults(sets[1])
	if err != nil {
		return err
	}
	table, err := os.Create("out/selfcheck.txt")
	if err != nil {
		return err
	}
	defer table.Close()
	out = io.MultiWriter(out, table)
	fmt.Fprintf(out, "selfcheck: %d invocations of every workload, alternately set A and set B (three runs each); "+
		"a cell agrees when the set medians differ by at most half the bound\n", invocations)
	fmt.Fprintf(out, "%-13s %-32s %12s %12s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "differ", "bound", "verdict")
	failed := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			ma, mb := median(a.values(w.name, d.Name)), median(b.values(w.name, d.Name))
			diff := (mb - ma) / ma
			if diff < 0 {
				diff = -diff
			}
			v := "agree"
			switch {
			case diff > d.Bound:
				v = "DISAGREE, beyond the bound"
				failed++
			case diff > d.Bound/2:
				v = "DISAGREE, within the bound"
				failed++
			}
			fmt.Fprintf(out, "%-13s %-32s %12.6g %12.6g %7.2f%% %7.0f%%  %s\n", w.name, d.Name, ma, mb, 100*diff, 100*d.Bound, v)
		}
	}
	fmt.Fprintf(out, "%d of %d cells disagree\n", failed, len(workloads)*len(endToEnd))
	if err := table.Close(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d cells disagree by more than half their bound", failed)
	}
	return nil
}
