package ebrrq

import (
	"fmt"

	"tscds/internal/core"
	"tscds/internal/epoch"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
)

// Technique is EBR-RQ's per-operation lifecycle over one structure's
// nodes, written once for every structure it augments: the labeling
// Provider, the epoch manager whose limbo lists keep a deleted node
// findable by the range queries that still need it, and the node pool
// that pruned limbo nodes are recycled into. What the technique does per
// edge — labeling a link, offering the live nodes to a Collector — stays
// with the structure, where it inlines.
type Technique[T any] struct {
	*Provider
	reg    *core.Registry
	em     *epoch.Manager[*T]
	np     *pool.Pool[T] // nil: the GC
	fields func(n *T) (key, val uint64, itime, dtime *Label)
}

// NewTechnique builds the lifecycle over src for reg's threads; fields
// exposes a node's key, value and labels. A retired node is kept in limbo
// while an active range query's bound precedes its deletion label. h's
// recorder reaches the provider and the epoch manager, its GC block takes
// the limbo counters, and h.Alloc builds the node pool (nil: the GC); a
// pruned node is recycled if keep (nil: always) says so. Limbo holds
// deleted nodes, not history: the retention watermark is not used.
func NewTechnique[T any](src core.Source, reg *core.Registry, variant Variant,
	fields func(n *T) (key, val uint64, itime, dtime *Label), keep func(n *T) bool, h core.Hooks) (*Technique[T], error) {
	p, err := New(src, variant)
	if err != nil {
		return nil, err
	}
	p.tr = h.Trace
	t := &Technique[T]{Provider: p, reg: reg, np: pool.New[T](reg.Cap(), h.Alloc, h.PoolStats), fields: fields}
	var recycle func(n *T, tid int)
	if t.np != nil {
		recycle = func(n *T, tid int) {
			if keep == nil || keep(n) {
				t.np.Put(tid, n)
			}
		}
	}
	t.em = epoch.NewManager(reg, func(n *T, min core.TS) bool {
		_, _, _, dtime := fields(n)
		return dtime.Get() >= min
	}, h.GC, h.Trace, recycle)
	return t, nil
}

// Enter and Exit bracket every operation that dereferences nodes.
func (t *Technique[T]) Enter(tid int) { t.em.Pin(tid) }
func (t *Technique[T]) Exit(tid int)  { t.em.Unpin(tid) }

// Drain prunes every limbo list; quiescent use only.
func (t *Technique[T]) Drain() { t.em.DrainAll() }

// Alloc returns a node for tid to initialize in full; Free takes back one
// that was never published.
func (t *Technique[T]) Alloc(tid int) *T     { return t.np.Get(tid) }
func (t *Technique[T]) Free(tid int, n *T)   { t.np.Put(tid, n) }
func (t *Technique[T]) Recycles() bool       { return t.np != nil }
func (t *Technique[T]) Retire(tid int, n *T) { t.em.Retire(tid, n) }

// Finish is the limbo half of a range query: the structure's traversal
// has offered the live nodes to c since mark, the limbo walk offers the
// retired ones, and c's collection is returned.
func (t *Technique[T]) Finish(tid int, c *Collector, mark uint64) []core.KV {
	t.tr.Span(tid, trace.PhaseTraverse, mark)
	mark = t.tr.Now(tid)
	t.em.WalkLimbo(func(n *T) bool { return c.AddLimbo(t.fields(n)) })
	t.tr.Span(tid, trace.PhaseLimboScan, mark)
	return c.Finish()
}

// Shape checks the limbo lists as a quiescent walk after Drain meets them:
// every node labeled, itime <= dtime (Label stamps with Peek, so the two may
// tie), deletion labels never rising down a thread's list, as AddLimbo's
// early exit assumes, and no node a prune releases: none while no range
// query is active.
func (t *Technique[T]) Shape() error {
	min := t.reg.MinActiveRQ()
	for _, list := range t.em.Lists() {
		last := core.Pending
		for _, n := range list {
			key, _, it, dt := t.fields(n)
			switch i, d := it.Get(), dt.Get(); {
			case d == core.Pending || i > d:
				return fmt.Errorf("ebrrq: key %d is in limbo labeled (%d, %d)", key, i, d)
			case d > last:
				return fmt.Errorf("ebrrq: key %d, deleted at %d, is older in limbo than one deleted at %d", key, d, last)
			case d < min:
				return fmt.Errorf("ebrrq: key %d, deleted at %d, is in limbo below every range query's bound", key, d)
			}
			last = dt.Get()
		}
	}
	return nil
}

// Live checks the labels of a node a quiescent walk reaches: inserted, and
// not deleted.
func Live(itime, dtime *Label) error {
	if i, d := itime.Get(), dtime.Get(); i == core.Pending || d != core.Pending {
		return fmt.Errorf("ebrrq: a reachable node is labeled (%d, %d)", i, d)
	}
	return nil
}

// LimboLen counts the retired nodes not yet pruned (tests).
func (t *Technique[T]) LimboLen() int { return t.em.LimboLen() }
