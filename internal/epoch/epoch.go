// Package epoch implements epoch-based reclamation (EBR) with the one
// extension EBR-RQ (Arbel-Raviv & Brown, PPoPP 2018) relies on: the
// per-thread limbo lists holding logically deleted nodes remain *visible*
// and scannable, so a range query can collect nodes that were removed
// from the structure after the query's linearization point but belonged
// to its snapshot.
//
// A node is retired into its deleter's limbo list tagged with the current
// global epoch. It is pruned only when both conditions hold:
//
//  1. three epochs have passed since retirement, so no thread can still
//     hold a reference obtained from the structure. Classic EBR needs
//     two, with nodes retired only after they are unreachable; EBR-RQ
//     retires *before* unlinking (the limbo list must be scannable the
//     moment the deletion can linearize), so a node's tag can lag its
//     actual unreachability by one epoch — the deleter is pinned across
//     retire and unlink, during which the global can advance once. A
//     reader pinned at tag+1 may therefore still acquire the node from
//     the structure; the third epoch waits that reader out. And
//  2. the caller-supplied retention predicate releases it — EBR-RQ keeps
//     a node while any active range query's timestamp still precedes the
//     node's deletion timestamp.
//
// What pruning *does* with the node is the caller's choice: by default
// it is dropped for Go's GC; with a Recycle hook (NewManager's recycle)
// the manager hands each pruned item back exactly once, so structures
// can feed their free lists (pool.Pool) with epoch-proven-unreachable
// memory. Recycling sharpens every liveness question into a memory-
// safety one, so the list protocol here is explicit about who may
// detach what:
//
//   - Append (Retire) is owner-only but uses a CAS push, because a
//     pruner may concurrently detach the list out from under the push.
//   - Prune is serialized per list by a CAS-claimed boundary (slot.claim),
//     so the owner's amortized prune and a concurrent Drain/DrainAll
//     cannot both detach — and thus double-recycle — the same suffix.
//     The claim holder is also the only writer of the pruned/len stats
//     for that detach, which keeps the accounting single-owner.
//   - WalkLimbo (the EBR-RQ limbo scan) registers in a scan count;
//     a detached suffix is handed to the Recycle hook only when no scan
//     is active, and is otherwise parked on a claim-guarded deferred
//     chain until a later prune observes zero scans. A scanner can
//     therefore never observe an item after it reached the pool. A
//     manager built without the hook recycles nothing, so its walks
//     skip the count and write nothing shared.
//
// Retire allocates nothing. Each list entry is a shell (limboNode) taken
// first from the owner's spare list — shells its own prunes recycled —
// and otherwise from the owner's current slab of slabSize shells, one
// allocation per slabSize retires. A thread's shells live FIFO (retired
// in order, pruned as an oldest suffix), so a slab holds no shell long
// after its neighbours are gone. With a Recycle hook a pruned shell goes
// back to the pruner's spare list (DrainAll, which owns no slot, drops
// it); without one it is never reused, and release cuts the next link of
// every shell it detaches, so one live shell keeps only its own slab
// reachable, not the chain of pruned shells behind it back through the
// thread's limbo history. A walker that meets a cut link ends that list
// early, which is safe: every item past the cut failed the retention
// predicate the prune checked.
package epoch

import (
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
)

// quiescent marks an unpinned thread slot.
const quiescent = ^uint64(0)

// pruneInterval is how many retirements pass between prune/advance
// attempts by one thread.
const pruneInterval = 64

// drainInterval is how many unpins pass between prune/advance attempts
// by a thread whose limbo list is non-empty. Without it a thread that
// stops retiring (updates cease, reads continue) would never drain its
// limbo list.
const drainInterval = 64

// drainRounds bounds Drain's advance/prune attempts. Three successive
// epoch advances make any quiescent retirement reclaimable, so a fourth
// round only mops up items retired mid-drain.
const drainRounds = 4

// slabSize is how many limbo shells one slab allocation provides.
const slabSize = 64

type limboNode[T any] struct {
	item  T
	epoch uint64
	next  atomic.Pointer[limboNode[T]]
}

// cacheLine is the assumed cache line size; see core's padding policy.
const cacheLine = 64

// slot is one thread's epoch state, laid out by who writes what, each
// half on its own cache-line pair.
//
// The owner's line — the published epoch, the two amortization counters
// and the shell supply — is written by the owner on every Pin, Unpin and
// Retire and read by others only when an advance is attempted (the shell
// supply never). The list line is
// written on a retirement or a prune and read by every limbo walk, so
// it must not hold anything the owner writes per operation: with the
// counters beside head, as they used to be, each range query missed on
// every list it looked at and the owner on its next operation, a cost
// that exists only while the threads really run in parallel.
type slot[T any] struct {
	_       [cacheLine]byte
	local   atomic.Uint64 // epoch observed while pinned; quiescent otherwise
	retires int           // owner-local counter
	unpins  int           // owner-local counter
	// spare chains, through next, the shells this thread's prunes
	// recycled; slab holds the unused shells of its current slab. Retire
	// takes from spare first. Both are owner-local.
	spare *limboNode[T]
	slab  []limboNode[T]
	_     [cacheLine - 56]byte

	head atomic.Pointer[limboNode[T]]
	// claim serializes pruners of this slot: the owner's amortized
	// prune and Drain/DrainAll race to CAS it 0→1, and only the winner
	// walks, detaches, accounts, and recycles. Everything the claim
	// guards is released before claim.Store(0), which the atomics'
	// ordering turns into a spinlock-style happens-before edge to the
	// next claimer.
	claim atomic.Uint32
	// deferred chains detached suffixes that could not be recycled yet
	// because a limbo scan was in flight. Mutated only under claim;
	// atomic so triggers can peek at emptiness without claiming.
	deferred atomic.Pointer[limboNode[T]]
	_        [2*cacheLine - 24]byte
}

// Manager coordinates epochs and limbo lists for the threads of one
// core.Registry (indexed by core.Thread.ID).
type Manager[T any] struct {
	global core.PaddedUint64
	// reg supplies the minimum active range-query timestamp and the
	// high-water mark of registered slots that bounds every slot scan.
	reg *core.Registry
	// retain reports whether an item must stay visible given the current
	// minimum active range-query timestamp (core.Pending when none).
	retain func(item T, minRQ core.TS) bool
	// recycle, when set, receives every pruned item exactly once, on the
	// pruning thread, after the scan guard proves no limbo scan can
	// still observe it. tid is the pruning thread's slot id, or -1 when
	// the pruner has no slot (DrainAll from an unregistered caller). Its
	// presence also decides the shells' fate: with it, each pruned shell
	// goes to the pruner's spare list; without it, release cuts the
	// detached shells' links and leaves their slabs to the GC.
	recycle func(item T, tid int)
	// gc, when set, receives limbo-list churn (retired/pruned counts and
	// the current population). Nil disables reporting.
	gc *obs.GC
	// tr, when set, receives pin republications and failed advance
	// attempts — the stall phases of epoch management. Nil disables it.
	tr *trace.Recorder
	// scans counts in-flight WalkLimbo walks; see release.
	scans atomic.Int64
	// slots holds each thread's epoch, limbo list and shell supply
	// (spare list and slab), indexed by core.Thread.ID.
	slots []slot[T]
	// pinHook, when set, runs inside Pin between reading the global
	// epoch and publishing it — the window in which concurrent
	// tryAdvance passes cannot see the thread. Tests use it to provoke
	// that window deterministically; it must be set before the manager
	// sees concurrent traffic.
	pinHook func()
}

// NewManager creates a manager for reg's threads. retain configures
// range-query-aware retention against reg.MinActiveRQ; passing nil
// yields plain EBR behaviour (epoch condition only). The sinks gc, tr and
// recycle (see the fields; each may be nil) are fixed here, before any
// traffic; recycle must tolerate tid == -1 by routing to a thread-safe
// free list.
func NewManager[T any](reg *core.Registry, retain func(T, core.TS) bool,
	gc *obs.GC, tr *trace.Recorder, recycle func(item T, tid int)) *Manager[T] {
	m := &Manager[T]{reg: reg, retain: retain, recycle: recycle, gc: gc, tr: tr, slots: make([]slot[T], reg.Cap())}
	m.global.Store(2) // leave room below for "before all epochs"
	for i := range m.slots {
		m.slots[i].local.Store(quiescent)
	}
	return m
}

// live returns the slots a scan must visit: those ever registered. See
// core.Registry.Live for why skipping a slot whose registration races
// the scan is safe — for tryAdvance it is the window Pin's republish
// loop closes, and a slot never registered has never retired anything.
func (m *Manager[T]) live() []slot[T] { return m.slots[:m.reg.Live()] }

// Pin enters an epoch-protected region for thread tid. Every data
// structure operation (including range queries) runs pinned.
//
// Publication must loop: a single load-then-store leaves a window in
// which the thread is still quiescent to tryAdvance. If the global
// epoch moved twice in that window, the thread would end up published
// two epochs behind, Prune's epoch safety margin would be void, and
// a node the thread is about to traverse could be dropped. Pin
// therefore re-reads the global after publishing and repeats until the
// published value is current; from then on the global can move at most
// one epoch past this thread until it unpins.
func (m *Manager[T]) Pin(tid int) {
	s := &m.slots[tid]
	var stalls uint64
	for {
		g := m.global.Load()
		if h := m.pinHook; h != nil {
			h()
		}
		s.local.Store(g)
		if m.global.Load() == g {
			if stalls > 0 {
				m.tr.Count(tid, trace.PhasePinStall, stalls)
			}
			return
		}
		stalls++
	}
}

// Unpin leaves the epoch-protected region. A thread with a non-empty
// limbo list periodically attempts epoch advancement and pruning here,
// so limbo lists drain even when the thread stops retiring (updates
// cease, reads continue).
func (m *Manager[T]) Unpin(tid int) {
	s := &m.slots[tid]
	s.local.Store(quiescent)
	if s.head.Load() == nil && s.deferred.Load() == nil {
		return
	}
	s.unpins++
	if s.unpins%drainInterval == 0 {
		m.tryAdvance()
		m.prune(tid, tid)
	}
}

// Drain aggressively advances the epoch and prunes tid's limbo list,
// for quiescent paths that want retained memory released without
// waiting out the amortized schedules. It may be called by the owning
// thread at any time; pinned threads and active range queries still
// block reclamation as usual.
func (m *Manager[T]) Drain(tid int) {
	s := &m.slots[tid]
	for i := 0; i < drainRounds && (s.head.Load() != nil || s.deferred.Load() != nil); i++ {
		m.tryAdvance()
		m.prune(tid, tid)
	}
}

// DrainAll drains every thread's limbo list. It is safe to run
// concurrently with operations: retirement appends are CAS pushes, and
// the per-slot claim ensures each detached suffix is accounted and
// recycled by exactly one pruner (a slot whose claim is held by its
// owner's in-flight prune is simply skipped this round — that prune is
// already doing the work). Recycled items are routed with tid -1, since
// the draining caller owns no slot.
func (m *Manager[T]) DrainAll() {
	for round := 0; round < drainRounds; round++ {
		m.tryAdvance()
		empty := true
		for tid := range m.live() {
			s := &m.slots[tid]
			if s.head.Load() != nil || s.deferred.Load() != nil {
				m.prune(tid, -1)
				empty = false
			}
		}
		if empty {
			return
		}
	}
}

// GlobalEpoch returns the current global epoch (diagnostics and tests).
func (m *Manager[T]) GlobalEpoch() uint64 { return m.global.Load() }

// Retire places item on tid's limbo list tagged with the current epoch,
// and periodically attempts epoch advancement and pruning. The push is
// a CAS loop rather than a plain store: a concurrent DrainAll may
// detach the list between the head load and the publication, and a
// plain store would resurrect the detached — possibly already recycled
// — suffix through the new node's next pointer. The entry's shell comes
// from the owner's spare list or slab, so Retire itself allocates
// nothing; refill does, once per slabSize retires.
func (m *Manager[T]) Retire(tid int, item T) {
	s := &m.slots[tid]
	n := s.spare
	if n != nil {
		s.spare = n.next.Load()
	} else {
		if len(s.slab) == 0 {
			s.refill()
		}
		n = &s.slab[0]
		s.slab = s.slab[1:]
	}
	n.item = item
	n.epoch = m.global.Load()
	for {
		h := s.head.Load()
		n.next.Store(h)
		if s.head.CompareAndSwap(h, n) {
			break
		}
	}
	s.retires++
	if m.gc != nil {
		m.gc.LimboRetired.Inc()
		m.gc.LimboLen.Add(1)
	}
	if s.retires%pruneInterval == 0 {
		m.tryAdvance()
		m.prune(tid, tid)
	}
}

// refill gives the slot a fresh slab of shells. It stays out of line so
// that Retire's body holds no allocation (make inline-check's noheap).
//
//go:noinline
func (s *slot[T]) refill() { s.slab = make([]limboNode[T], slabSize) }

// tryAdvance bumps the global epoch if every pinned thread has observed
// the current one.
func (m *Manager[T]) tryAdvance() {
	g := m.global.Load()
	live := m.live()
	for i := range live {
		if l := live[i].local.Load(); l != quiescent && l < g {
			// A pinned thread lags; the epoch cannot move. tryAdvance has
			// no thread identity (it runs from Retire/Unpin/Drain on any
			// thread), so the stall lands in the shared aggregates.
			m.tr.SharedCount(trace.PhaseAdvanceStall, 1)
			return
		}
	}
	m.global.CompareAndSwap(g, g+1)
}

// Prune drops the reclaimable suffix of tid's limbo list. Per-thread
// lists are ordered newest-first with per-thread-monotonic deletion
// timestamps, so once one node is reclaimable the entire suffix is.
// Intended for the owning thread; recycled items are credited to tid's
// free list.
func (m *Manager[T]) Prune(tid int) { m.prune(tid, tid) }

// prune detaches and releases the reclaimable suffix of slot tid's
// list. ctx is the slot id of the *pruning* thread (-1 when it has
// none), which is where the Recycle hook banks reclaimed items.
func (m *Manager[T]) prune(tid, ctx int) {
	s := &m.slots[tid]
	if !s.claim.CompareAndSwap(0, 1) {
		// Another pruner holds this list's boundary; its pass covers it.
		return
	}
	defer s.claim.Store(0)

	m.flushDeferred(s, ctx)

	g := m.global.Load()
	if g < 3 {
		return
	}
	// Three-epoch margin, not classic EBR's two: nodes are retired before
	// they are unlinked (scannability), so a tag can predate
	// unreachability by one epoch. See the package comment.
	safe := g - 3
	min := core.Pending
	if m.retain != nil {
		min = m.reg.MinActiveRQ()
	}
retry:
	var prev *limboNode[T]
	for n := s.head.Load(); n != nil; n = n.next.Load() {
		if n.epoch <= safe && (m.retain == nil || !m.retain(n.item, min)) {
			if prev == nil {
				// Detaching at the head races the owner's CAS push; on
				// failure re-walk from the new head (the push only ever
				// prepends, so the reclaimable suffix is still there).
				if !s.head.CompareAndSwap(n, nil) {
					goto retry
				}
			} else {
				// Interior next pointers are written only under claim,
				// and the owner's push touches only the head, so a plain
				// detach cannot race anything.
				prev.next.Store(nil)
			}
			dropped := int64(0)
			for x := n; x != nil; x = x.next.Load() {
				dropped++
			}
			if m.gc != nil {
				// The claim makes this pruner the sole accountant for the
				// detached suffix, so the gauge cannot drift (the old
				// overlapping-pruner double-decrement).
				m.gc.LimboPruned.Add(uint64(dropped))
				m.gc.LimboLen.Add(-dropped)
			}
			m.release(s, n, ctx)
			return
		}
		prev = n
	}
}

// release recycles a freshly detached chain, unless a limbo scan is in
// flight — a scanner that loaded the head before the detach may still
// be walking these very nodes, so handing them to the pool now would
// let the scan observe recycled memory. Such chains park on the slot's
// deferred list; flushDeferred recycles them once no scan is active.
//
// The ordering argument for the fast path: the detach (an atomic store
// or CAS) precedes the scans load here; Go atomics are sequentially
// consistent, so any scanner that was *not* counted at that load
// increments scans — and then loads the list head — after the detach,
// and cannot reach the detached chain.
func (m *Manager[T]) release(s *slot[T], chain *limboNode[T], ctx int) {
	if m.recycle == nil {
		// No hook: pruning means dropping for the GC, which a scanner
		// may safely keep reading until the chain is unreachable. Cut
		// every link, so a shell still live in the list, or still being
		// walked, keeps its own slab reachable and not, through the
		// detached shells, every slab this thread filled before it. A
		// walker that meets a cut link ends the list early: every item
		// past it failed the retention predicate.
		for n := chain; n != nil; {
			next := n.next.Load()
			n.next.Store(nil)
			n = next
		}
		return
	}
	if m.scans.Load() != 0 {
		tail := chain
		for {
			n := tail.next.Load()
			if n == nil {
				break
			}
			tail = n
		}
		tail.next.Store(s.deferred.Load())
		s.deferred.Store(chain)
		return
	}
	m.recycleChain(chain, ctx)
}

// flushDeferred hands a parked chain to the Recycle hook once no limbo
// scan is active. Caller must hold the slot's claim.
func (m *Manager[T]) flushDeferred(s *slot[T], ctx int) {
	chain := s.deferred.Load()
	if chain == nil || m.scans.Load() != 0 {
		return
	}
	s.deferred.Store(nil)
	m.recycleChain(chain, ctx)
}

// recycleChain walks a detached chain invoking the Recycle hook once
// per item and pushing each cleared shell onto the pruning thread's
// spare list; a pruner without a slot (ctx == -1, DrainAll) drops the
// shells. Without a hook the chain is simply dropped for the GC.
func (m *Manager[T]) recycleChain(chain *limboNode[T], ctx int) {
	if m.recycle == nil {
		return
	}
	var zero T
	for n := chain; n != nil; {
		next := n.next.Load()
		m.recycle(n.item, ctx)
		n.item = zero
		n.epoch = 0
		if ctx >= 0 {
			s := &m.slots[ctx]
			n.next.Store(s.spare)
			s.spare = n
		} else {
			n.next.Store(nil)
		}
		n = next
	}
}

// WalkLimbo visits the items on every registered thread's limbo list,
// each list newest retirement first. Returning false ends the CURRENT
// list — the walk moves on to the next thread's — which is what lets a
// range query stop at the first item too old for its snapshot (see
// ebrrq.Collector.AddLimbo).
//
// It is safe to run concurrently with retirements and pruning; the
// visitor may observe items being pruned concurrently (they are, by the
// retention protocol, items no active range query needs) but never an
// item already handed to a Recycle hook — the scan count defers
// recycling while any walk is in flight. Only recycling reads the count,
// and the hook is fixed at construction, so a manager without one skips it.
func (m *Manager[T]) WalkLimbo(fn func(item T) bool) {
	if m.recycle != nil {
		m.scans.Add(1)
		defer m.scans.Add(-1)
	}
	live := m.live()
	for i := range live {
		for n := live[i].head.Load(); n != nil; n = n.next.Load() {
			if !fn(n.item) {
				break
			}
		}
	}
}

// LimboLen reports the total number of items across all limbo lists
// (tests and heap-boundedness checks).
func (m *Manager[T]) LimboLen() int {
	total := 0
	m.WalkLimbo(func(T) bool { total++; return true })
	return total
}
