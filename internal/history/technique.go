package history

import (
	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
)

// Rule is who labels a chain's entries: the one thing vCAS and Bundling
// differ in, and with it what a trim may clear (Chain.Truncate) and which
// GC counter its drops feed.
type Rule uint8

const (
	VCAS     Rule = iota // labeled lazily; any reader may help
	Bundling             // labeled inside the writer's lock
)

// Technique is the per-operation lifecycle of the history techniques,
// embedded by each structure's policy for them. An unlinked node stays
// reachable to snapshot readers through the chains until truncation
// detaches it, so nothing is ever proven free: there is nothing to pin,
// retire or drain, nodes come from the GC, and the one recurring cost is
// trimming a chain an update just extended.
type Technique[T any] struct {
	Src    core.Source
	Tr     *trace.Recorder
	rule   Rule
	rb     *core.ReadBound
	pruned *obs.Counter // the GC counter the rule's trims feed, once hooked
}

// NewTechnique returns the lifecycle over src for chains labeled by r.
func NewTechnique[T any](src core.Source, r Rule) Technique[T] {
	return Technique[T]{Src: src, rule: r}
}

// SetHooks wires the recorder, the retention watermark trims respect and
// the GC counter they feed. The pool hooks are ignored: nothing recycles.
func (t *Technique[T]) SetHooks(hk core.Hooks) {
	t.Tr, t.rb, t.pruned = hk.Trace, hk.ReadBound, nil
	if hk.GC != nil {
		t.pruned = &hk.GC.VcasVersionsPruned
		if t.rule == Bundling {
			t.pruned = &hk.GC.BundleEntriesPruned
		}
	}
}

func (*Technique[T]) Enter(int)      {}
func (*Technique[T]) Exit(int)       {}
func (*Technique[T]) Drain()         {}
func (*Technique[T]) Alloc(int) *T   { return new(T) }
func (*Technique[T]) Free(int, *T)   {}
func (*Technique[T]) Recycles() bool { return false }

// Trim truncates the chains a completed update just extended, all against
// th's one prune bound (core.PruneBoundOf), and counts what they dropped.
func (t *Technique[T]) Trim(th *core.Thread, chains ...*Chain[*T]) {
	bound := core.PruneBoundOf(th, t.rb, t.Src)
	d := 0
	for _, c := range chains {
		d += c.Truncate(bound, t.rule)
	}
	if d > 0 && t.pruned != nil {
		t.pruned.Add(uint64(d))
	}
}
