package tscds_test

import (
	"slices"
	"testing"
)

// pair is level i of axis a beside level j of axis b, a < b. A setup picks
// one level of every axis: setup[a] is axis a's.
type pair struct{ a, i, b, j int }

// pairsOf lists the pairs a setup holds.
func pairsOf(setup []int) (out []pair) {
	for a := range setup {
		for b := a + 1; b < len(setup); b++ {
			out = append(out, pair{a, setup[a], b, setup[b]})
		}
	}
	return out
}

// acceptedPairs lists, in axis order, the pairs of levels that go
// together: those some setup holding them at level 0 of every axis but the
// first takes. The first axis is the one whose levels differ in what they
// go with; level 0 of every other axis must go with everything.
func acceptedPairs[L any](axes [][]L, accept func(setup []int) bool) (out []pair) {
	for a := range axes {
		for b := a + 1; b < len(axes); b++ {
			for i := range axes[a] {
				for j := range axes[b] {
					if p := (pair{a, i, b, j}); goes(axes, accept, p) {
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// goes reports whether accept takes p at some level of the first axis.
func goes[L any](axes [][]L, accept func(setup []int) bool, p pair) bool {
	for k := range axes[0] {
		setup := make([]int, len(axes))
		setup[0], setup[p.a], setup[p.b] = k, p.i, p.j
		if accept(setup) {
			return true
		}
		if p.a == 0 {
			return false // p fixes the first axis
		}
	}
	return false
}

// pairwise is a deterministic greedy cover of the accepted pairs: every one
// is in some setup, and no setup holds a pair accept refuses. Each setup
// holds the first pair not yet covered and is, of the setups holding it, the
// first that covers most new pairs. A setup whose pairs the others all cover
// is then dropped, so removing any setup uncovers a pair.
func pairwise[L any](axes [][]L, accept func(setup []int) bool) [][]int {
	accepted := acceptedPairs(axes, accept)
	ok, todo, count := map[pair]bool{}, map[pair]bool{}, map[pair]int{}
	for _, p := range accepted {
		ok[p], todo[p] = true, true
	}
	var setups [][]int
	for _, p := range accepted {
		if !todo[p] {
			continue
		}
		var best []int
		for s, gain := make([]int, len(axes)), 0; s != nil; s = step(axes, s) {
			if s[p.a] != p.i || s[p.b] != p.j {
				continue
			}
			g := 0
			for _, q := range pairsOf(s) {
				if !ok[q] {
					g = -1
					break
				}
				if todo[q] {
					g++
				}
			}
			if g > gain {
				best, gain = slices.Clone(s), g
			}
		}
		if best != nil {
			setups = append(setups, best)
			for _, q := range pairsOf(best) {
				delete(todo, q)
				count[q]++
			}
		}
	}
	for i := len(setups) - 1; i >= 0; i-- {
		if !slices.ContainsFunc(pairsOf(setups[i]), func(q pair) bool { return count[q] == 1 }) {
			for _, q := range pairsOf(setups[i]) {
				count[q]--
			}
			setups = slices.Delete(setups, i, i+1)
		}
	}
	return setups
}

// step advances setup, odometer-wise, to the next setup of axes; nil after
// the last.
func step[L any](axes [][]L, setup []int) []int {
	for a := range setup {
		if setup[a]++; setup[a] < len(axes[a]) {
			return setup
		}
		setup[a] = 0
	}
	return nil
}

// uncovered lists the accepted pairs no setup holds.
func uncovered[L any](axes [][]L, accept func(setup []int) bool, setups [][]int) (out []pair) {
	held := map[pair]bool{}
	for _, s := range setups {
		for _, p := range pairsOf(s) {
			held[p] = true
		}
	}
	for _, p := range acceptedPairs(axes, accept) {
		if !held[p] {
			out = append(out, p)
		}
	}
	return out
}

// TestPairwise covers a small table whose first axis refuses some levels:
// every accepted pair is held, no refused setup is, and every setup is
// needed.
func TestPairwise(t *testing.T) {
	axes := [][]string{{"a", "b", "c"}, {"x", "y", "z"}, {"0", "1"}, {"0", "1"}}
	accept := func(s []int) bool { return s[0] != 2 || s[1] != 1 && s[3] != 1 }
	setups := pairwise(axes, accept)
	if miss := uncovered(axes, accept, setups); len(miss) != 0 {
		t.Fatalf("pairs %v held by no setup of %v", miss, setups)
	}
	for i, s := range setups {
		if !accept(s) {
			t.Errorf("setup %v holds a refused pair", s)
		}
		if miss := uncovered(axes, accept, slices.Delete(slices.Clone(setups), i, i+1)); len(miss) == 0 {
			t.Errorf("setup %v covers no pair alone", s)
		}
	}
	t.Logf("%d setups: %v", len(setups), setups)
}
