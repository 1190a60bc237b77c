package history

import (
	"runtime"

	"tscds/internal/core"
)

// Prepare pushes a pending entry for a new link target. The caller must
// hold the structure's locks covering this link, so at most one pending
// entry exists per chain. The entry stays pending — blocking snapshot
// readers that reach it — until Finalize.
func (c *Chain[V]) Prepare(val V) *Entry[V] {
	e := new(Entry[V])
	c.PrepareWith(e, val)
	return e
}

// PrepareWith is Prepare with the caller-owned entry e (typically embedded
// in the node val points to, which this update created: an entry sits in
// one chain only).
func (c *Chain[V]) PrepareWith(e *Entry[V], val V) {
	e.val = val
	e.ts.Store(core.Pending)
	e.next.Store(c.head.Load())
	c.head.Store(e)
}

// Finalize labels a prepared entry, linearizing the update that created
// it. All entries prepared by one operation receive the same timestamp.
func (c *Chain[V]) Finalize(e *Entry[V], ts core.TS) {
	e.ts.Store(ts)
}

// WaitAt returns the link target at snapshot bound s: the target of the
// newest entry labeled <= s. It spins across pending entries (the
// labeling window is a few instructions inside the updater's critical
// section). The boolean is false when the link has no entry that old —
// impossible for callers that reached this chain through an edge labeled
// <= s, since Init labels with 0. It also returns the number of entries
// examined (>= 1 whenever the chain is non-empty; entries past the first
// measure history walked) and the number of spins on pending entries —
// the dereference-depth and labeling-wait costs the tracing layer
// aggregates as the bundle-deref and pending-wait phases.
func (c *Chain[V]) WaitAt(s core.TS) (val V, ok bool, depth, spins int) {
	e := c.head.Load()
	for e != nil {
		depth++
		ts := e.ts.Load()
		if ts == core.Pending {
			runtime.Gosched()
			spins++
			ts = e.ts.Load()
			if ts == core.Pending {
				depth--
				continue // re-read until the in-flight updater labels
			}
		}
		if ts <= s {
			return e.val, true, depth, spins
		}
		e = e.next.Load()
	}
	return val, false, depth, spins
}
