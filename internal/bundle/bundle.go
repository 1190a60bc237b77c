// Package bundle implements the bundled references of Nelson, Hassan and
// Palmieri ("Bundled references: an abstraction for highly-concurrent
// linearizable range queries", PPoPP 2021).
//
// A Bundle augments one link (e.g. a node's next pointer) of a lock-based
// structure with the link's timestamped history, newest first. An update
// that changes links while holding the structure's locks Prepares a
// pending entry in each affected bundle, obtains one timestamp — with a
// logical source this Advance is the fetch-and-add bottleneck the paper
// removes; with TSC it is a core-local read — and Finalizes the entries.
// Timestamp labeling is thus atomic only with the op's own lock scope
// (§IV calls this medium granularity), never with a global lock, which is
// why bundling benefits from hardware timestamps.
//
// A range query at snapshot bound s follows, in each bundle, the newest
// entry labeled <= s, thereby traversing the structure exactly as it was
// at s. Range queries block briefly on pending entries, matching the
// original design (bundling targets lock-based structures, so its range
// queries are blocking).
package bundle

import (
	"runtime"
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/pool"
)

// Entry is one moment of a link's history. A structure may embed the
// entry that records a link to a fresh node in that node (PrepareWith),
// and the node's own first entry beside it (InitPendingWith): the bundle's
// head then points into the line a snapshot walk needs next — for bundles
// what vcas.InitWith/Arm are for version chains.
type Entry[T any] struct {
	ts   atomic.Uint64
	ptr  *T
	next atomic.Pointer[Entry[T]] // older entry
}

// TS returns the entry's label (core.Pending while in flight).
func (e *Entry[T]) TS() core.TS { return e.ts.Load() }

// Ptr returns the link target recorded by this entry.
func (e *Entry[T]) Ptr() *T { return e.ptr }

// Next returns the next older entry (tests and invariant checks).
func (e *Entry[T]) Next() *Entry[T] { return e.next.Load() }

// Bundle is the timestamped history of one link.
type Bundle[T any] struct {
	head atomic.Pointer[Entry[T]]
}

// Init records the link's initial target with label 0, before the
// enclosing node is published.
func (b *Bundle[T]) Init(ptr *T) { b.InitIn(nil, -1, ptr) }

// InitIn is Init drawing the entry from p (Config.Alloc pooled/arena
// modes; nil p allocates through the GC). Entries from a pool may be
// recycled memory, so every field is reset before the entry becomes
// reachable.
//
// Truncate clears the next and ptr of every entry it detaches and leaves
// the label alone: an entry embedded in a node lives as long as the node
// and must not keep the history below it reachable, while its label may
// double as the node's own (the skip list's insertion timestamp). No
// reader is inside a detached tail (Truncate), but nothing proves a
// detached entry unreferenced either, so the truncation path never feeds
// the pool; entry pooling buys arena batching only.
func (b *Bundle[T]) InitIn(p *pool.Pool[Entry[T]], tid int, ptr *T) {
	e := p.Get(tid)
	e.ptr = ptr
	e.ts.Store(0)
	e.next.Store(nil)
	b.head.Store(e)
}

// New returns a bundle initialized to ptr.
func New[T any](ptr *T) *Bundle[T] {
	b := &Bundle[T]{}
	b.Init(ptr)
	return b
}

// InitPending seeds an unpublished node's bundle with a pending first
// entry, to be Finalized with the inserting operation's timestamp. Unlike
// Init (label 0), this lets snapshot readers detect that the node itself
// is newer than their snapshot — needed when a reader can land on a node
// through an un-timestamped index (the skip list's upper levels) rather
// than through a labeled edge.
func (b *Bundle[T]) InitPending(ptr *T) *Entry[T] { return b.InitPendingIn(nil, -1, ptr) }

// InitPendingIn is InitPending drawing the entry from p (nil p
// allocates through the GC).
func (b *Bundle[T]) InitPendingIn(p *pool.Pool[Entry[T]], tid int, ptr *T) *Entry[T] {
	e := p.Get(tid)
	b.InitPendingWith(e, ptr)
	return e
}

// InitPendingWith is InitPending into the caller-owned entry e (typically
// embedded in the node the bundle belongs to). e may be recycled memory;
// every field is reset.
func (b *Bundle[T]) InitPendingWith(e *Entry[T], ptr *T) {
	e.ptr = ptr
	e.ts.Store(core.Pending)
	e.next.Store(nil)
	b.head.Store(e)
}

// Prepare pushes a pending entry for a new link target. The caller must
// hold the structure's locks covering this link, so at most one pending
// entry exists per bundle. The entry stays pending — blocking snapshot
// readers that reach it — until Finalize.
func (b *Bundle[T]) Prepare(ptr *T) *Entry[T] { return b.PrepareIn(nil, -1, ptr) }

// PrepareIn is Prepare drawing the entry from p (nil p allocates
// through the GC).
func (b *Bundle[T]) PrepareIn(p *pool.Pool[Entry[T]], tid int, ptr *T) *Entry[T] {
	e := p.Get(tid)
	b.PrepareWith(e, ptr)
	return e
}

// PrepareWith is Prepare with the caller-owned entry e (typically embedded
// in the node ptr points to, which this update created: an entry sits in
// one chain only). e may be recycled memory; every field is reset.
func (b *Bundle[T]) PrepareWith(e *Entry[T], ptr *T) {
	e.ptr = ptr
	e.ts.Store(core.Pending)
	e.next.Store(b.head.Load())
	b.head.Store(e)
}

// Finalize labels a prepared entry, linearizing the update that created
// it. All entries prepared by one operation receive the same timestamp.
func (b *Bundle[T]) Finalize(e *Entry[T], ts core.TS) {
	e.ts.Store(ts)
}

// Abort removes a prepared entry after a failed validation, restoring
// the bundle head. Only valid while the caller still holds the locks it
// held at Prepare and no later Prepare has occurred.
func (b *Bundle[T]) Abort(e *Entry[T]) {
	b.head.Store(e.next.Load())
}

// PtrAt returns the link target at snapshot bound s: the target of the
// newest entry labeled <= s. It spins across pending entries (the
// labeling window is a few instructions inside the updater's critical
// section). The boolean is false when the link has no entry that old —
// impossible for callers that reached this bundle through an edge
// labeled <= s, since Init labels with 0.
func (b *Bundle[T]) PtrAt(s core.TS) (*T, bool) {
	ptr, ok, _, _ := b.PtrAtWalk(s)
	return ptr, ok
}

// PtrAtWalk is PtrAt returning additionally the number of history
// entries examined (>= 1 whenever the chain is non-empty; entries past
// the first measure history walked) and the number of spins on pending
// entries — the dereference-depth and labeling-wait costs the tracing
// layer aggregates as the bundle-deref and pending-wait phases.
func (b *Bundle[T]) PtrAtWalk(s core.TS) (ptr *T, ok bool, depth, spins int) {
	e := b.head.Load()
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
			return e.ptr, true, depth, spins
		}
		e = e.next.Load()
	}
	return nil, false, depth, spins
}

// Head exposes the newest entry (tests and invariant checks).
func (b *Bundle[T]) Head() *Entry[T] { return b.head.Load() }

// Truncate drops history below the newest entry labeled at or before
// minRQ, the minimum active range-query timestamp; no current or future
// snapshot reads anything older: a reader at a bound >= minRQ stops at or
// above the entry the cut is made at. Writers call it while holding the
// link's locks. Every detached entry loses its next and its ptr (never its
// label, see InitIn), so that one embedded in a live node pins nothing. It
// returns the number of entries dropped.
func (b *Bundle[T]) Truncate(minRQ core.TS) int {
	e := b.head.Load()
	if e == nil || e.ts.Load() == core.Pending {
		return 0
	}
	for e.ts.Load() > minRQ {
		next := e.next.Load()
		if next == nil {
			return 0
		}
		e = next
	}
	tail := e.next.Load()
	if tail == nil {
		return 0 // nothing to cut: leave the line clean
	}
	e.next.Store(nil)
	n := 0
	for tail != nil {
		next := tail.next.Load()
		tail.next.Store(nil)
		tail.ptr = nil
		tail = next
		n++
	}
	return n
}

// Len counts reachable entries (tests, heap-boundedness assertions).
func (b *Bundle[T]) Len() int {
	n := 0
	for e := b.head.Load(); e != nil; e = e.next.Load() {
		n++
	}
	return n
}
