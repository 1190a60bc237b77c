package history

import (
	"errors"
	"fmt"
	"sync/atomic"

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
// structure lock, and Drain truncates what every thread has recorded.
type Technique[T any] struct {
	Src    core.Source
	Tr     *trace.Recorder
	rule   Rule
	reg    *core.Registry
	rb     *core.ReadBound
	pruned *obs.Counter // the GC counter the rule's trims feed; nil without one
	// untrimmed is Check's note for Shape, quiescent walks only.
	untrimmed error
	// bufs holds one buffer per registry slot, allocated at the slot's
	// first Trim.
	bufs []atomic.Pointer[trimBuf[T]]
}

// trimBuf is one thread slot's record of the chains its updates extended.
// Only the owner writes it; Drain reads the chains from any goroutine, so
// they are atomic. A flush leaves its chains in place: truncating a chain
// again is safe at any time, and the next records overwrite them. Exit
// flushes at trimBatch, and one operation records a few chains, so the
// buffer never fills.
type trimBuf[T any] struct {
	n      int // owner-only: chains recorded since the last flush
	chains [2 * trimBatch]atomic.Pointer[Chain[*T]]
}

// NewTechnique returns the lifecycle over src for chains labeled by r,
// whose trims keep what reg's range queries read, wired to h's recorder,
// the retention watermark trims respect and the GC counter they feed. The
// pool hooks are ignored: nothing recycles.
func NewTechnique[T any](src core.Source, reg *core.Registry, r Rule, h core.Hooks) Technique[T] {
	t := Technique[T]{Src: src, Tr: h.Trace, rule: r, reg: reg, rb: h.ReadBound,
		bufs: make([]atomic.Pointer[trimBuf[T]], reg.Cap())}
	if h.GC != nil {
		t.pruned = &h.GC.VcasVersionsPruned
		if r == Bundling {
			t.pruned = &h.GC.BundleEntriesPruned
		}
	}
	return t
}

func (*Technique[T]) Enter(int)      {}
func (*Technique[T]) Alloc(int) *T   { return new(T) }
func (*Technique[T]) Free(int, *T)   {}
func (*Technique[T]) Recycles() bool { return false }

// Trim records the chains a completed update just extended in th's
// buffer. It runs under the structures' locks, so it only records.
func (t *Technique[T]) Trim(th *core.Thread, chains ...*Chain[*T]) {
	b := t.bufs[th.ID].Load()
	if b == nil {
		b = new(trimBuf[T])
		t.bufs[th.ID].Store(b)
	}
	for _, c := range chains {
		b.chains[b.n].Store(c)
		b.n++
	}
}

// Exit ends thread tid's operation. Once its buffer holds trimBatch
// chains, it flushes them: truncates them all against one fresh bound.
func (t *Technique[T]) Exit(tid int) {
	if b := t.bufs[tid].Load(); b != nil && b.n >= trimBatch {
		t.truncate(b.chains[:b.n])
		b.n = 0
	}
}

// Drain truncates every chain any thread recorded, flushed or not, each
// buffer's against a fresh bound. It may run beside updates: a buffer's
// owner keeps its count, and truncation is safe against concurrent writers
// and trims.
func (t *Technique[T]) Drain() {
	for i := range t.bufs[:t.reg.Live()] {
		if b := t.bufs[i].Load(); b != nil {
			t.truncate(b.chains[:])
		}
	}
}

// ErrUntrimmed is Shape's finding of a chain holding more than one entry
// at or below the trim bound: what a trim now would cut. Drain reaches only
// the chains each thread recorded last, so a chain cut while a reader or
// the retention window held history back keeps it until its next write.
var ErrUntrimmed = errors.New("history: more than one entry at or below the trim bound")

// Check checks chains as a quiescent walk after Drain meets them: no entry
// Pending, and labels never rising from the head (vCAS labels with Peek, so
// two may tie). It notes the first chain a trim at a bound taken now would
// cut, for Shape.
func (t *Technique[T]) Check(chains ...*Chain[*T]) error {
	bound := core.TrimBound(t.Src, t.reg, t.rb)
	for _, c := range chains {
		last := core.Pending
		for e := c.head.Load(); e != nil; last, e = e.ts.Load(), e.next.Load() {
			switch ts := e.ts.Load(); {
			case ts == core.Pending:
				return errors.New("history: a Pending entry")
			case ts > last:
				return fmt.Errorf("history: label %d below label %d", ts, last)
			case ts <= bound && e.next.Load() != nil && t.untrimmed == nil:
				t.untrimmed = fmt.Errorf("%w %d: %d entries", ErrUntrimmed, bound, c.Len())
			}
		}
	}
	return nil
}

// Shape returns, once, the first untrimmed chain Check noted.
func (t *Technique[T]) Shape() (err error) {
	err, t.untrimmed = t.untrimmed, nil
	return err
}

// truncate cuts chains against a bound taken now (core.TrimBound) and
// counts what they dropped.
func (t *Technique[T]) truncate(chains []atomic.Pointer[Chain[*T]]) {
	bound := core.TrimBound(t.Src, t.reg, t.rb)
	d := 0
	for i := range chains {
		if c := chains[i].Load(); c != nil {
			d += c.Truncate(bound, t.rule)
		}
	}
	if d > 0 && t.pruned != nil {
		t.pruned.Add(uint64(d))
	}
}
