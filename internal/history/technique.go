package history

import (
	"errors"
	"fmt"

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

// trimBatch is how many recorded chains make a thread's next operation
// end flush its buffer.
const trimBatch = 64

// Technique is the per-operation lifecycle of the history techniques,
// embedded by each structure's policy for them. An unlinked node stays
// reachable to snapshot readers through the chains until truncation
// detaches it, so nothing is ever proven free: there is nothing to pin,
// retire or recycle, nodes come from the GC, and the one recurring cost is
// trimming the chains updates extended. An update only records them
// (Trim); the thread's operation end that finds trimBatch of them recorded
// truncates them all against one bound taken then (Exit), outside every
// structure lock. A quiescent walk cuts every chain it meets (Cut).
type Technique[T any] struct {
	Src    core.Source
	Tr     *trace.Recorder
	rule   Rule
	reg    *core.Registry
	rb     *core.ReadBound
	pruned *obs.Counter // the GC counter the rule's trims feed; nil without one
	// bufs holds one buffer per registry slot, allocated at the slot's
	// first Trim. Only the slot's owner reads or writes its entry.
	bufs []*trimBuf[T]
}

// trimBuf is one thread slot's record of the chains its updates extended,
// touched by the slot's owner alone (Trim, Exit); the registry's Release
// and Register order it from one owner to the next. Exit flushes at
// trimBatch, and one operation records a few chains, so the buffer never
// fills.
type trimBuf[T any] struct {
	n      int // chains recorded since the last flush
	chains [2 * trimBatch]*Chain[*T]
}

// NewTechnique returns the lifecycle over src for chains labeled by r,
// whose trims keep what reg's range queries read, wired to h's recorder,
// the retention watermark trims respect and the GC counter they feed. The
// pool hooks are ignored: nothing recycles.
func NewTechnique[T any](src core.Source, reg *core.Registry, r Rule, h core.Hooks) Technique[T] {
	t := Technique[T]{Src: src, Tr: h.Trace, rule: r, reg: reg, rb: h.ReadBound,
		bufs: make([]*trimBuf[T], reg.Cap())}
	if h.GC != nil {
		t.pruned = &h.GC.VcasVersionsPruned
		if r == Bundling {
			t.pruned = &h.GC.BundleEntriesPruned
		}
	}
	return t
}

func (*Technique[T]) Enter(int)      {}
func (*Technique[T]) Drain()         {}
func (*Technique[T]) Shape() error   { return nil }
func (*Technique[T]) Alloc(int) *T   { return new(T) }
func (*Technique[T]) Free(int, *T)   {}
func (*Technique[T]) Recycles() bool { return false }

// Trim records the chains a completed update just extended in th's
// buffer. It runs under the structures' locks, so it only records.
func (t *Technique[T]) Trim(th *core.Thread, chains ...*Chain[*T]) {
	b := t.bufs[th.ID]
	if b == nil {
		b = t.newBuf(th.ID)
	}
	for _, c := range chains {
		b.chains[b.n] = c
		b.n++
	}
}

// newBuf gives slot tid its buffer at its first Trim. It stays out of line
// so that Trim's body holds no allocation (make inline-check's noheap).
//
//go:noinline
func (t *Technique[T]) newBuf(tid int) *trimBuf[T] {
	b := new(trimBuf[T])
	t.bufs[tid] = b
	return b
}

// Exit ends thread tid's operation. Once its buffer holds trimBatch
// chains, it flushes them: truncates them all against one fresh bound.
func (t *Technique[T]) Exit(tid int) {
	if b := t.bufs[tid]; b != nil && b.n >= trimBatch {
		t.truncate(b.chains[:b.n])
		b.n = 0
	}
}

// Cut is a quiescent walk's trim of the chains it meets: it truncates them
// against one fresh bound, as a flush does, and then checks them: no entry
// Pending, labels never rising from the head (vCAS labels with Peek, so two
// may tie), and nothing left below the entry the bound reads.
func (t *Technique[T]) Cut(chains ...*Chain[*T]) error {
	bound := t.truncate(chains)
	for _, c := range chains {
		last := core.Pending
		for e := c.head.Load(); e != nil; last, e = e.ts.Load(), e.next.Load() {
			switch ts := e.ts.Load(); {
			case ts == core.Pending:
				return errors.New("history: a Pending entry")
			case ts > last:
				return fmt.Errorf("history: label %d below label %d", ts, last)
			case ts <= bound && e.next.Load() != nil:
				return fmt.Errorf("history: the cut at %d left %d entries", bound, c.Len())
			}
		}
	}
	return nil
}

// truncate cuts chains against a bound taken now (core.TrimBound), counts
// what they dropped and returns the bound.
func (t *Technique[T]) truncate(chains []*Chain[*T]) core.TS {
	bound := core.TrimBound(t.Src, t.reg, t.rb)
	d := 0
	for _, c := range chains {
		d += c.Truncate(bound, t.rule)
	}
	if d > 0 && t.pruned != nil {
		t.pruned.Add(uint64(d))
	}
	return bound
}
