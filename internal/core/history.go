package core

import (
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
)

// History is the per-operation lifecycle of the techniques whose
// snapshots live in the structure's own history — vCAS's version chains,
// Bundling's entry lists — embedded by each structure's policy for them.
// An unlinked node stays reachable to snapshot readers through that
// history until truncation detaches it, so nothing is ever proven free:
// there is nothing to pin, retire or drain, nodes come from the GC, and
// the one recurring cost is trimming a chain an update just extended.
type History[T any] struct {
	Src    Source
	Tr     *trace.Recorder
	rb     *ReadBound
	counts Pruned
	pruned *obs.Counter // the GC counter counts feeds, once hooked
}

// Pruned picks the obs.GC counter a history technique's trims feed.
type Pruned func(*obs.GC) *obs.Counter

var (
	VersionsPruned Pruned = func(g *obs.GC) *obs.Counter { return &g.VcasVersionsPruned }
	EntriesPruned  Pruned = func(g *obs.GC) *obs.Counter { return &g.BundleEntriesPruned }
)

// NewHistory returns the lifecycle over src whose trims feed counts.
func NewHistory[T any](src Source, counts Pruned) History[T] {
	return History[T]{Src: src, counts: counts}
}

// SetHooks wires the recorder, the retention watermark trims respect and
// the GC counter they feed. The pool hooks are ignored: nothing recycles.
func (h *History[T]) SetHooks(hk Hooks) {
	h.Tr, h.rb, h.pruned = hk.Trace, hk.ReadBound, nil
	if hk.GC != nil {
		h.pruned = h.counts(hk.GC)
	}
}

func (*History[T]) Enter(int)      {}
func (*History[T]) Exit(int)       {}
func (*History[T]) Drain()         {}
func (*History[T]) Alloc(int) *T   { return new(T) }
func (*History[T]) Free(int, *T)   {}
func (*History[T]) Recycles() bool { return false }

// Trim truncates the chains a completed update just extended — vCAS
// objects, bundles — all against th's one truncation bound (PruneBoundOf),
// and counts what they dropped.
func (h *History[T]) Trim(th *Thread, chains ...interface{ Truncate(TS) int }) {
	bound := PruneBoundOf(th, h.rb, h.Src)
	d := 0
	for _, c := range chains {
		d += c.Truncate(bound)
	}
	if d > 0 && h.pruned != nil {
		h.pruned.Add(uint64(d))
	}
}
