// Package pool is the allocator facade behind Config.Alloc: a generic,
// per-thread free-list allocator through which the EBR-RQ structures
// recycle the nodes their epoch manager proves unreachable.
//
// The paper's comparisons (Logical vs RDTSCP labeling cost) assume the
// rest of the update path is cheap; with every node allocated through
// the GC, allocation and pause time blur exactly the deltas the
// benchmarks measure. The epoch machinery proves when a retired EBR-RQ
// node is unreachable, so reclamation can feed allocation: retire → limbo
// → free list → next Get, with the Go allocator only backstopping cold
// starts and imbalanced producers/consumers. vCAS and Bundling keep what
// they detach reachable to in-flight snapshot readers, so nothing they
// publish is ever proven unreachable: their structures allocate through
// the GC whatever the mode.
//
// Two modes:
//
//   - GC: the facade disappears. New returns a nil *Pool, whose methods
//     are nil-receiver safe: Get allocates with new(T), Put drops the
//     node for the collector. Structures therefore call the facade
//     unconditionally and pay one predictable nil check in GC mode.
//   - Pool: Get pops the calling thread's free list (owner-only, no
//     atomics), falling back to a shared sync.Pool and then to new(T).
//     Put pushes back to the thread's free list, overflowing to the
//     shared pool so cross-thread imbalance (one thread retires what
//     another allocates) still recycles.
//
// Concurrency contract: Get(tid)/Put(tid) with tid >= 0 touch only
// slot tid and MUST come from the thread registered with that id (the
// same single-writer discipline core.Registry already enforces for the
// structures). Put(-1, x) — used when a node is recycled by a thread
// that has no slot, e.g. an unregistered caller running DrainAll —
// routes through the shared sync.Pool, which is safe from anywhere.
//
// Safety contract: callers must hand Put only memory that is provably
// unreachable (the epoch manager's prune points, or a node that was
// never published). Reuse converts any use-after-retire into an ABA
// bug, which is exactly what the reclamation regression tests and
// FuzzPooledAgainstModel pin down.
package pool

import (
	"sync"

	"tscds/internal/core"
	"tscds/internal/obs"
)

const (
	// maxLocalFree caps a thread's private free list; beyond it Put
	// overflows to the shared pool so one retire-heavy thread cannot
	// strand unbounded memory other threads could reuse.
	maxLocalFree = 4096
	// pad keeps each slot's hot fields on their own cache-line pair,
	// mirroring core's padding policy.
	pad = 64
)

// slot is one thread's private allocation state. Owner-only: no field
// is accessed by any thread but the registered owner.
type slot[T any] struct {
	_    [pad]byte
	free []*T // LIFO free list; most recently retired first (warm)
	_    [pad]byte
}

// A Pool hands out *T. The zero value is not useful; use New. A nil
// *Pool is the GC mode and is safe to call.
type Pool[T any] struct {
	stats  *obs.PoolStats // nil disables reporting
	shared sync.Pool      // overflow / cross-thread rebalance; holds *T
	slots  []slot[T]
}

// New builds a pool with maxThreads single-writer slots. GC mode (and
// any unknown mode) returns nil — the nil receiver implements GC-mode
// behavior — so callers store the result unconditionally. stats may be
// nil.
func New[T any](maxThreads int, mode core.AllocMode, stats *obs.PoolStats) *Pool[T] {
	if mode != core.AllocPool {
		return nil
	}
	if maxThreads < 1 {
		maxThreads = 1
	}
	return &Pool[T]{stats: stats, slots: make([]slot[T], maxThreads)}
}

// Get returns a *T for the calling thread to initialize. The memory may
// be recycled: every field the caller relies on must be (re)set before
// the node is published. tid < 0 or out of range skips the per-thread
// free list and serves from the shared pool or the heap.
func (p *Pool[T]) Get(tid int) *T {
	if p == nil {
		return new(T)
	}
	if tid >= 0 && tid < len(p.slots) {
		s := &p.slots[tid]
		if n := len(s.free); n > 0 {
			x := s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
			p.hit()
			return x
		}
	}
	if x, ok := p.shared.Get().(*T); ok {
		p.hit()
		return x
	}
	p.miss()
	return new(T)
}

// Put returns x to the pool. x must be unreachable by every other
// thread (epoch-proven, or never published); the caller must not touch
// it afterwards. tid < 0 or out of range routes through the shared
// pool, which is safe from any goroutine.
func (p *Pool[T]) Put(tid int, x *T) {
	if p == nil || x == nil {
		return
	}
	if p.stats != nil {
		p.stats.Recycled.Inc()
	}
	if tid >= 0 && tid < len(p.slots) {
		s := &p.slots[tid]
		if len(s.free) < maxLocalFree {
			s.free = append(s.free, x)
			return
		}
	}
	p.shared.Put(x)
}

func (p *Pool[T]) hit() {
	if p.stats != nil {
		p.stats.Hits.Inc()
	}
}

func (p *Pool[T]) miss() {
	if p.stats != nil {
		p.stats.Misses.Inc()
	}
}
