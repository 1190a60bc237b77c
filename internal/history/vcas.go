package history

import (
	"sync/atomic"

	"tscds/internal/core"
)

// Arm prepares the caller-owned entry e, unpublished, for one
// CompareAndSwapVersion: pending label, and next pointing at e itself,
// which marks it "not linked yet".
func (e *Entry[V]) Arm(val V) {
	e.val = val
	e.ts.Store(core.Pending)
	e.next.Store(e)
}

// label assigns e's timestamp if still pending. Any thread may help; the
// CAS makes the first label win, fixing the write's linearization point.
// The check is all a traversal pays per edge, so it must inline into
// Read and ReadAt (`make inline-check`); the rare labeling itself stays
// out of line.
func label[V comparable](src core.Source, e *Entry[V]) {
	if e.ts.Load() == core.Pending {
		labelPending(src, &e.ts)
	}
}

//go:noinline
func labelPending(src core.Source, ts *atomic.Uint64) {
	ts.CompareAndSwap(core.Pending, src.Peek())
}

// Read returns the current value, first fixing the head version's label
// so the read is ordered against snapshots.
func (c *Chain[V]) Read(src core.Source) V {
	h := c.head.Load()
	label(src, h)
	return h.val
}

// CompareAndSwap installs new if the current value equals old. It
// returns false when the current value differs. Lock-free: concurrent
// winners are ordered by the head CAS, and a failed installer helps
// label the version that beat it. A version that loses to a changed
// value was never published and is left to the GC.
func (c *Chain[V]) CompareAndSwap(src core.Source, old, new V) bool {
	var nv *Entry[V]
	for {
		h := c.head.Load()
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
			nv = &Entry[V]{val: new}
			nv.ts.Store(core.Pending)
		}
		nv.next.Store(h)
		if c.head.CompareAndSwap(h, nv) {
			label(src, nv)
			return true
		}
	}
}

// CompareAndSwapVersion installs the armed, caller-owned version nv if the
// current value equals old, and reports whether THIS call installed it.
// Any number of helpers may call it with the same nv, provided they can
// only ever find the same head holding old (EFRB's flag freezes the edge)
// and old never returns to the chain: the first of them links nv.next,
// once — a helper arriving after Truncate cut the chain below nv cannot
// re-link the tail — and one head CAS publishes it. A caller that lost
// labels the winner before returning, like CompareAndSwap.
func (c *Chain[V]) CompareAndSwapVersion(src core.Source, old V, nv *Entry[V]) bool {
	h := c.head.Load()
	label(src, h)
	if h.val != old {
		return false
	}
	nv.next.CompareAndSwap(nv, h)
	if c.head.CompareAndSwap(h, nv) {
		label(src, nv)
		return true
	}
	label(src, c.head.Load())
	return false
}

// Write unconditionally installs a new value (for lock-based structures,
// where the caller's locks serialize writers; readers may still help
// label concurrently).
func (c *Chain[V]) Write(src core.Source, new V) {
	h := c.head.Load()
	label(src, h)
	if h.val == new {
		return
	}
	nv := &Entry[V]{val: new}
	nv.ts.Store(core.Pending)
	nv.next.Store(h)
	c.head.Store(nv)
	label(src, nv)
}

// ReadAt returns the value visible at snapshot bound s — the newest
// version labeled <= s, after labeling the head — and the number of chain
// hops taken past the head, the per-read cost of version history that the
// tracing layer aggregates as the version-walk phase. The boolean is false
// when the chain has no version that old (callers reaching a chain through
// an edge labeled <= s never see that, because Init labels with 0).
func (c *Chain[V]) ReadAt(src core.Source, s core.TS) (V, bool, int) {
	v := c.head.Load()
	label(src, v)
	hops := 0
	for v != nil && v.ts.Load() > s {
		v = v.next.Load()
		hops++
	}
	if v == nil {
		var zero V
		return zero, false, hops
	}
	return v.val, true, hops
}
