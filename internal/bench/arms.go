package bench

import (
	"fmt"
	"sort"
	"strings"

	"tscds"
)

// The names an arm is spelled with on a command line and in the figure
// table (internal/sim): "structure/technique", e.g. "citrus/bundle".
var (
	structures = map[string]tscds.Structure{
		"bst": tscds.BST, "citrus": tscds.Citrus, "skiplist": tscds.SkipList,
		"lazylist": tscds.LazyList,
	}
	techniques = map[string]tscds.Technique{
		"vcas": tscds.VCAS, "bundle": tscds.Bundle,
		"ebrrq": tscds.EBRRQ, "ebrrq-lockfree": tscds.EBRRQLockFree,
	}
)

// ParseArm resolves "structure/technique" into the pair tscds.New takes.
func ParseArm(spec string) (tscds.Structure, tscds.Technique, error) {
	s, t, ok := strings.Cut(spec, "/")
	st, ok1 := structures[s]
	te, ok2 := techniques[t]
	if !ok || !ok1 || !ok2 {
		return 0, 0, fmt.Errorf("bench: arm %q: want structure/technique, one of %s", spec, strings.Join(Arms(), " "))
	}
	return st, te, nil
}

// Arms lists, sorted, every arm tscds.New accepts on the logical source
// (the one source every technique supports).
func Arms() []string {
	var out []string
	for s, st := range structures {
		for t, te := range techniques {
			if _, err := tscds.New(st, te, tscds.Config{Source: tscds.Logical}); err == nil {
				out = append(out, s+"/"+t)
			}
		}
	}
	sort.Strings(out)
	return out
}
