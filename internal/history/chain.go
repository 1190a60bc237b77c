// Package history is the timestamped link the paper's two history
// techniques share: vCAS (Wei et al., "Constant-time snapshots with
// applications to concurrent data structures", PPoPP 2021) and Bundling
// (Nelson, Hassan and Palmieri, "Bundled references: an abstraction for
// highly-concurrent linearizable range queries", PPoPP 2021).
//
// Both keep, per link, a newest-first Chain of (label, target) entries; a
// range query at snapshot bound s follows the newest entry labeled <= s,
// and a trim cuts what no bound at or above the trim bound can read. They
// differ only in who labels an entry, the Rule: the labeling granularity
// the paper finds decides the hardware-timestamp gain (§IV).
//
//   - VCAS (vcas.go) labels lazily: a write installs a pending version and
//     labels it afterwards, and any reader that meets it first helps, so
//     labeling is never atomic with the structural change (fine
//     granularity; up to 5.5x with TSC, Figure 2). With a logical source
//     only range queries advance the camera; updates Peek.
//   - Bundling (bundle.go) labels inside the writer's lock: an update
//     Prepares a pending entry in each chain it changes, takes one
//     timestamp — the fetch-and-add the paper removes, a core-local read
//     with TSC — and Finalizes them (medium granularity). Range queries
//     block briefly on the pending entries they meet.
//
// Technique (technique.go) is the per-operation lifecycle both run under.
package history

import (
	"sync/atomic"

	"tscds/internal/core"
)

// Entry is one moment of a link's history: a label and the target the link
// held from then on. A structure may embed the entry that records a node
// in that node (InitWith, Arm, PrepareWith): the link's head then points
// into the line a traversal needs next, and following it costs one miss
// instead of two — Wei et al.'s "avoiding indirection".
type Entry[V comparable] struct {
	ts   atomic.Uint64
	val  V
	next atomic.Pointer[Entry[V]] // older entry
}

// TS returns the entry's label (core.Pending while in flight).
func (e *Entry[V]) TS() core.TS { return e.ts.Load() }

// Value returns the target recorded by this entry.
func (e *Entry[V]) Value() V { return e.val }

// Next returns the next older entry (tests and invariant checks).
func (e *Entry[V]) Next() *Entry[V] { return e.next.Load() }

// Chain is the timestamped history of one link, newest first.
type Chain[V comparable] struct {
	head atomic.Pointer[Entry[V]]
}

// Init records the link's initial target with label 0 ("before every
// snapshot"), before the enclosing node is published. Entries come from
// the GC: a reader may hold one a trim detached, so none is ever proven
// free to reuse.
func (c *Chain[V]) Init(val V) { c.head.Store(&Entry[V]{val: val}) }

// InitWith is Init into the caller-owned entry e.
func (c *Chain[V]) InitWith(e *Entry[V], val V) { c.seed(e, val, 0) }

// InitPendingWith seeds an unpublished node's chain with the pending first
// entry e, to be Finalized with the inserting operation's timestamp.
// Unlike InitWith (label 0), this lets snapshot readers detect that the
// node itself is newer than their snapshot — needed when a reader can land
// on a node through an un-timestamped index (the skip list's upper levels)
// rather than through a labeled edge.
func (c *Chain[V]) InitPendingWith(e *Entry[V], val V) { c.seed(e, val, core.Pending) }

func (c *Chain[V]) seed(e *Entry[V], val V, ts core.TS) {
	e.val = val
	e.ts.Store(ts)
	e.next.Store(nil)
	c.head.Store(e)
}

// Head exposes the newest entry.
func (c *Chain[V]) Head() *Entry[V] { return c.head.Load() }

// Len counts the entries currently reachable (tests, heap-boundedness
// assertions).
func (c *Chain[V]) Len() int {
	n := 0
	for e := c.head.Load(); e != nil; e = e.next.Load() {
		n++
	}
	return n
}

// Truncate cuts the chain below its newest entry labeled at or before
// bound, a trim bound (core.TrimBound): no current or future snapshot
// reads anything older — a reader at a bound >= it stops at or above the
// entry the cut is made at. It returns the number of entries it detached.
//
// Trims are deferred (Technique.Exit), so two threads may cut one chain at
// once, at different bounds, beside a writer extending it. Each pointer
// they follow into the detached tail is claimed with Swap(nil): the cut
// itself, then every detached entry's link, so each entry is detached,
// counted and cleared by exactly one of them, and a cut made inside a tail
// another call detached finds it already claimed.
//
// What the cut may clear beyond the links is r's:
//
//   - Bundling clears each detached entry's target and keeps its label:
//     an entry embedded in a live node must not keep what it recorded
//     reachable, while its label may double as the node's own (the skip
//     list's insertion timestamp).
//   - VCAS keeps targets: a lock-free Read or CompareAndSwap that loaded
//     the old head may still read its value — on a logical source a bound
//     equal to the new version's label detaches the old head at once. No
//     reader follows a detached version's link: one that loaded it as the
//     head reads at a bound at or above its label.
func (c *Chain[V]) Truncate(bound core.TS, r Rule) int {
	e := c.head.Load()
	if e == nil || e.ts.Load() == core.Pending {
		return 0
	}
	for e.ts.Load() > bound {
		if e = e.next.Load(); e == nil {
			return 0
		}
	}
	if e.next.Load() == nil {
		return 0 // nothing to cut: leave the line clean
	}
	n := 0
	for tail := e.next.Swap(nil); tail != nil; n++ {
		if r == Bundling {
			var zero V
			tail.val = zero
		}
		tail = tail.next.Swap(nil)
	}
	return n
}
