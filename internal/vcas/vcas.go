// Package vcas implements the versioned-CAS object of Wei et al.
// ("Constant-time snapshots with applications to concurrent data
// structures", PPoPP 2021), the technique the paper ports to hardware
// timestamps with the largest gains (up to 5.5x, Figure 2).
//
// An Object replaces a mutable pointer-sized field in a lock-free data
// structure. Each write installs a new Version whose timestamp starts as
// core.Pending and is labeled afterwards — by the writer or by any
// reader that encounters it first (helping). Labeling is therefore never
// atomic with the structural modification, which is exactly the
// fine-grained "timestamp labeling" property (§IV) that lets vCAS profit
// from TSC: with a logical source the camera is advanced only by range
// queries (Snapshot) while updates merely Peek; with TSC every access is
// a core-local fenced read.
//
// Snapshot reads (ReadVersion) walk the version chain to the newest
// version labeled at or before the snapshot bound. Chains are truncated
// via Truncate once versions age out of every active range query's reach.
package vcas

import (
	"sync/atomic"

	"tscds/internal/core"
)

// Version is one entry in an Object's history. A structure may embed the
// Version that records a node inside that node (InitWith,
// CompareAndSwapVersion): the edge's head then points into the target's
// own cache line and reading the edge costs one miss instead of two —
// Wei et al.'s "avoiding indirection" for recorded-once nodes.
type Version[V comparable] struct {
	val  V
	ts   atomic.Uint64
	prev atomic.Pointer[Version[V]]
}

// TS returns the version's label (core.Pending if not yet labeled).
func (v *Version[V]) TS() core.TS { return v.ts.Load() }

// Value returns the version's payload.
func (v *Version[V]) Value() V { return v.val }

// Object is a versioned mutable cell holding values of type V.
type Object[V comparable] struct {
	head atomic.Pointer[Version[V]]
}

// Init sets the initial value with label 0 ("before every snapshot").
// The enclosing node must be published only after Init, as usual for
// lock-free initialization. Versions come from the GC: a reader may hold
// one of a tail Truncate detached, so none is ever proven free to reuse.
func (o *Object[V]) Init(val V) { o.InitWith(new(Version[V]), val) }

// InitWith is Init into the caller-owned version v (typically embedded in
// the node val points to).
func (o *Object[V]) InitWith(v *Version[V], val V) {
	v.val = val
	v.ts.Store(0)
	v.prev.Store(nil)
	o.head.Store(v)
}

// Arm prepares the caller-owned version v, unpublished, for one
// CompareAndSwapVersion: pending label, and prev pointing at v itself,
// which marks it "not linked yet".
func (v *Version[V]) Arm(val V) {
	v.val = val
	v.ts.Store(core.Pending)
	v.prev.Store(v)
}

// New returns an initialized object.
func New[V comparable](val V) *Object[V] {
	o := &Object[V]{}
	o.Init(val)
	return o
}

// label assigns v's timestamp if still pending. Any thread may help; the
// CAS makes the first label win, fixing the write's linearization point.
// The check is all a traversal pays per edge, so it must inline into
// Read and ReadVersionWalk (`make inline-check`); the rare labeling
// itself stays out of line.
func label[V comparable](src core.Source, v *Version[V]) {
	if v.ts.Load() == core.Pending {
		labelPending(src, &v.ts)
	}
}

//go:noinline
func labelPending(src core.Source, ts *atomic.Uint64) {
	ts.CompareAndSwap(core.Pending, src.Peek())
}

// Read returns the current value, first fixing the head version's label
// so the read is ordered against snapshots.
func (o *Object[V]) Read(src core.Source) V {
	h := o.head.Load()
	label(src, h)
	return h.val
}

// CompareAndSwap installs new if the current value equals old. It
// returns false when the current value differs. Lock-free: concurrent
// winners are ordered by the head CAS, and a failed installer helps
// label the version that beat it. A version that loses to a changed
// value was never published and is left to the GC.
func (o *Object[V]) CompareAndSwap(src core.Source, old, new V) bool {
	var nv *Version[V]
	for {
		h := o.head.Load()
		label(src, h)
		if h.val != old {
			return false
		}
		if old == new {
			// No-op writes need no new version; the labeled head
			// already represents the value.
			return true
		}
		if nv == nil {
			nv = &Version[V]{val: new}
			nv.ts.Store(core.Pending)
		}
		nv.prev.Store(h)
		if o.head.CompareAndSwap(h, nv) {
			label(src, nv)
			return true
		}
	}
}

// CompareAndSwapVersion installs the armed, caller-owned version nv if the
// current value equals old, and reports whether THIS call installed it.
// Any number of helpers may call it with the same nv, provided they can
// only ever find the same head holding old (EFRB's flag freezes the edge)
// and old never returns to the object: the first of them links nv.prev,
// once — a helper arriving after Truncate cut the chain below nv cannot
// re-link the tail — and one head CAS publishes it. A caller that lost
// labels the winner before returning, like CompareAndSwap.
func (o *Object[V]) CompareAndSwapVersion(src core.Source, old V, nv *Version[V]) bool {
	h := o.head.Load()
	label(src, h)
	if h.val != old {
		return false
	}
	nv.prev.CompareAndSwap(nv, h)
	if o.head.CompareAndSwap(h, nv) {
		label(src, nv)
		return true
	}
	label(src, o.head.Load())
	return false
}

// Write unconditionally installs a new value (for lock-based structures,
// where the caller's locks serialize writers; readers may still help
// label concurrently).
func (o *Object[V]) Write(src core.Source, new V) {
	h := o.head.Load()
	label(src, h)
	if h.val == new {
		return
	}
	nv := &Version[V]{val: new}
	nv.ts.Store(core.Pending)
	nv.prev.Store(h)
	o.head.Store(nv)
	label(src, nv)
}

// ReadVersion returns the value visible at snapshot bound s: the newest
// version labeled <= s. The boolean is false when the object has no
// version that old (callers reaching an object through an edge labeled
// <= s never see that, because Init labels with 0).
func (o *Object[V]) ReadVersion(src core.Source, s core.TS) (V, bool) {
	v, ok, _ := o.ReadVersionWalk(src, s)
	return v, ok
}

// ReadVersionWalk is ReadVersion returning additionally the number of
// chain hops taken past the head — the per-read cost of version history,
// which the tracing layer aggregates as the version-walk phase.
func (o *Object[V]) ReadVersionWalk(src core.Source, s core.TS) (V, bool, int) {
	v := o.head.Load()
	label(src, v)
	hops := 0
	for v != nil && v.ts.Load() > s {
		v = v.prev.Load()
		hops++
	}
	if v == nil {
		var zero V
		return zero, false, hops
	}
	return v.val, true, hops
}

// Head exposes the newest version (tests and invariant checks).
func (o *Object[V]) Head() *Version[V] { return o.head.Load() }

// Truncate cuts the version chain below the newest version labeled at or
// before minRQ (the minimum active range-query timestamp): no current or
// future snapshot can need anything older. Call it opportunistically from
// writers; it is safe to run concurrently with readers, which hold direct
// pointers into the chain and are unaffected by losing the tail. It
// returns the number of versions dropped (counted on the detached tail;
// concurrent truncators may attribute the same tail to both — the count
// feeds metrics, not correctness).
func (o *Object[V]) Truncate(minRQ core.TS) int {
	v := o.head.Load()
	if v == nil || v.ts.Load() == core.Pending {
		return 0
	}
	// Find the newest version labeled <= minRQ; it must survive (it is
	// the value any snapshot >= minRQ reads); everything older goes.
	for v.ts.Load() > minRQ {
		next := v.prev.Load()
		if next == nil {
			return 0
		}
		v = next
	}
	tail := v.prev.Load()
	if tail == nil {
		return 0 // nothing to cut: leave the line clean
	}
	v.prev.Store(nil)
	n := 0
	for ; tail != nil; tail = tail.prev.Load() {
		n++
	}
	return n
}

// ChainLen counts versions currently reachable (tests, heap-boundedness
// assertions).
func (o *Object[V]) ChainLen() int {
	n := 0
	for v := o.head.Load(); v != nil; v = v.prev.Load() {
		n++
	}
	return n
}
