package ebrrq

import (
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
	em     *epoch.Manager[*T]
	np     *pool.Pool[T] // nil: the GC
	slots  int
	fields func(n *T) (key, val uint64, itime, dtime *Label)
	keep   func(n *T) bool // nil: every pruned node is recycled
}

// NewTechnique builds the lifecycle over src for reg's threads; fields
// exposes a node's key, value and labels. A retired node is kept in limbo
// while an active range query's bound precedes its deletion label.
func NewTechnique[T any](src core.Source, reg *core.Registry, variant Variant,
	fields func(n *T) (key, val uint64, itime, dtime *Label)) (*Technique[T], error) {
	p, err := New(src, variant)
	if err != nil {
		return nil, err
	}
	t := &Technique[T]{Provider: p, slots: reg.Cap(), fields: fields}
	t.em = epoch.NewManager[*T](reg, func(n *T, min core.TS) bool {
		_, _, _, dtime := fields(n)
		return dtime.Get() >= min
	})
	return t, nil
}

// RecycleIf gates recycling: a pruned node goes back to the pool only if
// keep says so, and to the GC otherwise. Call before SetHooks.
func (t *Technique[T]) RecycleIf(keep func(n *T) bool) { t.keep = keep }

// SetHooks wires the flight recorder (through the provider's lock-wait
// and label spans and the epoch manager's stalls), the limbo counters,
// and builds the node pool — nil in GC mode. Limbo holds deleted nodes,
// not history: the retention watermark is not used.
func (t *Technique[T]) SetHooks(h core.Hooks) {
	t.tr = h.Trace
	t.em.SetTrace(h.Trace)
	t.em.SetGC(h.GC)
	if t.np = pool.New[T](t.slots, h.Alloc, h.PoolStats); t.np != nil {
		t.em.SetRecycle(func(n *T, tid int) {
			if t.keep == nil || t.keep(n) {
				t.np.Put(tid, n)
			}
		})
	}
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
	mark = t.tr.Now()
	t.em.WalkLimbo(func(n *T) bool { return c.AddLimbo(t.fields(n)) })
	t.tr.Span(tid, trace.PhaseLimboScan, mark)
	return c.Finish()
}

// VisitLimbo offers the fields of every retired node to fn, each thread's
// list newest first; false ends the current list (epoch.Manager).
func (t *Technique[T]) VisitLimbo(fn func(key, val uint64, itime, dtime *Label) bool) {
	t.em.WalkLimbo(func(n *T) bool { return fn(t.fields(n)) })
}

// LimboLen counts the retired nodes not yet pruned (tests).
func (t *Technique[T]) LimboLen() int { return t.em.LimboLen() }
