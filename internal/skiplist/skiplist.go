// Package skiplist is a lock-based lazy skip list (Herlihy, Lev, Luchangco,
// Shavit, "A simple optimistic skiplist algorithm", SIROCCO 2007)
// augmented with bundled references on the bottom-level links — the
// combination of the paper's Figure 5, where TSC helps only update-heavy
// mixes because the skip list's own traversal, not the timestamp,
// bounds read-heavy throughput.
//
// Layout. A node is one allocation, ordered by who reads it. First what a
// search reads: the key, the tower — its low levels inline, a pointer to the
// overflow array of the few nodes taller than inlineLevels — the deletion
// label, and in, the bundle entry the node's insert pushed on its
// predecessor's bundle, whose label is the node's insertion label. That
// entry leads to this node, so a snapshot walk that follows it is already
// on the memory it reads next: the value, the node's own bundle and its
// first entry out, then the lock and flags of an update. A delete records
// no fresh node and allocates its entry (DESIGN §7).
//
// Linearization protocol. A node's insertion timestamp is the label of its
// in entry; beside it the node carries a deletion timestamp:
//
//	in.ts: Pending -> t     (assigned by the inserting op)
//	dts:   0 -> Pending -> t  (0 = alive, Pending = delete claimed,
//	                           t = delete linearized)
//
// An insert finalizes in with the timestamp it read before linking the
// node, then out with the same one; a delete stores dts before it finalizes
// its entry. Elemental reads treat a Pending label as "the update has not
// linearized yet". The label a range query finds on the edge to a node is
// the label a contains finds on the node — one word — so the two are
// mutually linearizable: once a range query can observe an update through a
// finalized bundle entry, every later contains observes it too, and vice
// versa.
package skiplist

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tscds/internal/bundle"
	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
)

// maxLevel supports ~2^20 keys with p = 1/2.
const maxLevel = 20

// inlineLevels is how much of a tower lives in the node; one node in
// 2^inlineLevels is taller and owns an overflow array. With 5 a bundled
// node is 144 bytes, a size class of its own; EXPERIMENTS.md has the ledger
// for 3 to 6.
const inlineLevels = 5

// MaxKey is the largest insertable key.
const MaxKey = ^uint64(0) - 2

// tower is a node's links, one per level it occupies: the low
// inlineLevels in the node itself, the rest in an overflow array that only
// a taller node owns. All three lists' nodes hold one.
type tower[T any] struct {
	low  [inlineLevels]atomic.Pointer[T]
	more *[maxLevel - inlineLevels]atomic.Pointer[T]
}

// at is the link at level l, below the height the tower was reset to.
func (t *tower[T]) at(l int) *atomic.Pointer[T] {
	if l < inlineLevels {
		return &t.low[l]
	}
	return &t.more[l-inlineLevels]
}

// reset empties the tower of an unpublished node for top levels; an
// overflow array left by the node's previous life is reused when top needs
// one and dropped when not.
func (t *tower[T]) reset(top int) {
	t.low = [inlineLevels]atomic.Pointer[T]{}
	switch {
	case top <= inlineLevels:
		t.more = nil
	case t.more == nil:
		t.more = new([maxLevel - inlineLevels]atomic.Pointer[T])
	default:
		*t.more = [maxLevel - inlineLevels]atomic.Pointer[T]{}
	}
}

type node struct {
	key  uint64
	next tower[node]
	dts  atomic.Uint64
	in   bundle.Entry[node] // on the predecessor's bundle; its label is the insertion timestamp

	val uint64
	bnd bundle.Bundle[node]
	out bundle.Entry[node] // first entry of bnd
	sync.Mutex
	fullyLinked atomic.Bool
	topLevel    int32 // number of levels this node occupies (1..maxLevel)
}

func newNode(key, val uint64, topLevel int) *node {
	n := &node{key: key, val: val, topLevel: int32(topLevel)}
	n.next.reset(topLevel)
	return n
}

// alive reports whether the node counts as logically present for link
// validation (not deleted nor claimed by a deleter).
func alive(n *node) bool { return n.dts.Load() == 0 }

// present reports whether the node's insert has linearized and its delete
// has not — membership in the newest snapshot: a pending insertion label is
// not yet in, a claimed but unassigned deletion label still is.
func present(n *node) bool { return visibleAt(n, core.MaxTS) }

// List is the bundled skip list.
type List struct {
	src  core.Source
	reg  *core.Registry
	gc   *obs.GC
	tr   *trace.Recorder
	np   *pool.Pool[node]
	ep   *pool.Pool[bundle.Entry[node]]
	rb   *core.ReadBound
	rd   *core.Reader
	head *node
	rngs []core.PaddedUint64 // per-thread xorshift state for level draws
}

// New creates an empty list over the given source and registry.
func New(src core.Source, reg *core.Registry) *List {
	head := newNode(0, 0, maxLevel)
	head.fullyLinked.Store(true)
	head.bnd.InitPendingWith(&head.out, nil)
	head.bnd.Finalize(&head.out, 0)
	t := &List{
		src:  src,
		reg:  reg,
		head: head,
		rngs: make([]core.PaddedUint64, reg.Cap()),
	}
	t.rd = core.NewReader(src, core.QueryReads, t)
	return t
}

// Source returns the list's timestamp source.
func (t *List) Source() core.Source { return t.src }

// Reader returns the list's snapshot-read protocol.
func (t *List) Reader() *core.Reader { return t.rd }

// SetHooks wires the list's sinks: GC counters, the flight recorder, the
// retention watermark entry truncation respects, and the allocation mode
// of nodes and of the deletes' bundle entries. The bundled list has no
// reclamation scheme for nodes: an unlinked node stays reachable to
// in-flight readers through the history of the edge that led to it, until
// truncation detaches that entry — truncation clears the links of what it
// detaches, embedded entries included, and touches nothing else of a node —
// and is then dropped to the GC. So pooling here is allocation-side only:
// arena chunking and sync.Pool batching, never recycling of published
// memory. Call before the list sees concurrent traffic.
func (t *List) SetHooks(h core.Hooks) {
	t.gc, t.tr, t.rb = h.GC, h.Trace, h.ReadBound
	t.rd.SetHooks(h)
	t.np = pool.New[node](t.reg.Cap(), h.Alloc, h.PoolStats)
	t.ep = pool.New[bundle.Entry[node]](t.reg.Cap(), h.Alloc, h.PoolStats)
}

// newNodeIn is newNode drawing from the node pool when one is configured.
// Nodes are never Put back (no reclamation), so pooled memory is always
// fresh from an arena chunk or the allocator; the reset — tower, labels,
// both embedded entries, the overflow array kept or dropped — mirrors
// newNode regardless, keeping the constructor correct if recycling is ever
// added.
func (t *List) newNodeIn(tid int, key, val uint64, topLevel int) *node {
	if t.np == nil {
		return newNode(key, val, topLevel)
	}
	n := t.np.Get(tid)
	*n = node{key: key, val: val, topLevel: int32(topLevel), next: tower[node]{more: n.next.more}}
	n.next.reset(topLevel)
	return n
}

// noteRetries reports an update's validation-failure retries.
func noteRetries(tr *trace.Recorder, th *core.Thread, retries uint64) {
	if tr == nil || retries == 0 {
		return
	}
	tr.Count(th.ID, trace.PhaseRetry, retries)
}

// randLevel draws a tower height from tid's xorshift state.
func randLevel(rngs []core.PaddedUint64, tid int) int {
	x := rngs[tid].Load()
	if x == 0 {
		x = uint64(tid)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	rngs[tid].Store(x)
	lvl := 1
	for x&1 == 1 && lvl < maxLevel {
		lvl++
		x >>= 1
	}
	return lvl
}

// find fills preds/succs per level and returns the highest level at
// which key was found (-1 if absent). Head is below every key.
func (t *List) find(key uint64, preds, succs *[maxLevel]*node) int {
	lFound := -1
	pred := t.head
	for l := maxLevel - 1; l >= 0; l-- {
		cur := pred.next.at(l).Load()
		for cur != nil && cur.key < key {
			pred = cur
			cur = cur.next.at(l).Load()
		}
		if lFound == -1 && cur != nil && cur.key == key {
			lFound = l
		}
		preds[l] = pred
		succs[l] = cur
	}
	return lFound
}

// lookup returns the node holding key, linearized or not, or nil. Unlike
// find it stops at the level it meets the key on.
func (t *List) lookup(key uint64) *node {
	pred := t.head
	for l := maxLevel - 1; l >= 0; l-- {
		cur := pred.next.at(l).Load()
		for cur != nil && cur.key < key {
			pred = cur
			cur = cur.next.at(l).Load()
		}
		if cur != nil && cur.key == key {
			return cur
		}
	}
	return nil
}

// Contains reports whether key is present.
func (t *List) Contains(_ *core.Thread, key uint64) bool {
	n := t.lookup(key)
	return n != nil && present(n)
}

// Get returns the value stored at key.
func (t *List) Get(_ *core.Thread, key uint64) (uint64, bool) {
	if n := t.lookup(key); n != nil && present(n) {
		return n.val, true
	}
	return 0, false
}

// lockPreds locks the distinct predecessors of levels [0, top) into the
// caller's locked array and returns how many it took; unlockPreds releases
// them. Both arrays stay on the caller's stack (an unlock closure would
// move them to the heap, twice per attempt). One pair serves the three
// lists' node types.
func lockPreds[N interface {
	comparable
	sync.Locker
}](preds, locked *[maxLevel]N, top int) int {
	n := 0
	var prev N
	for l := 0; l < top; l++ {
		if preds[l] != prev {
			preds[l].Lock()
			locked[n] = preds[l]
			n++
			prev = preds[l]
		}
	}
	return n
}

func unlockPreds[N sync.Locker](locked *[maxLevel]N, n int) {
	for i := 0; i < n; i++ {
		locked[i].Unlock()
	}
}

// Insert adds key with val; it returns false if already present.
func (t *List) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxKey || key == 0 {
		// 0 is the head sentinel's slot; the facade offsets keys.
		return false
	}
	topLevel := randLevel(t.rngs, th.ID)
	var preds, succs [maxLevel]*node
	var retries uint64
	for {
		if lFound := t.find(key, &preds, &succs); lFound != -1 {
			f := succs[lFound]
			// Wait out an in-flight insert label (a few instructions).
			for f.in.TS() == core.Pending {
				runtime.Gosched()
			}
			if d := f.dts.Load(); d != 0 && d != core.Pending {
				retries++
				continue // deleted; its unlink is imminent — retry
			}
			for !f.fullyLinked.Load() {
				runtime.Gosched()
			}
			noteRetries(t.tr, th, retries)
			return false
		}
		var locked [maxLevel]*node
		nl := lockPreds(&preds, &locked, topLevel)
		valid := true
		for l := 0; l < topLevel; l++ {
			succ := succs[l]
			if !alive(preds[l]) || preds[l].next.at(l).Load() != succ ||
				(succ != nil && !alive(succ)) {
				valid = false
				break
			}
		}
		if !valid {
			unlockPreds(&locked, nl)
			retries++
			continue
		}
		am := t.tr.Now()
		n := t.newNodeIn(th.ID, key, val, topLevel)
		t.tr.Span(th.ID, trace.PhaseAlloc, am)
		for l := 0; l < topLevel; l++ {
			n.next.at(l).Store(succs[l])
		}
		// The Prepare..Finalize window is bundling's labeling phase. The
		// timestamp is read before the node is reachable (DESIGN §6): an
		// update that hangs a key behind n must take a later one.
		lb := t.tr.Now()
		n.bnd.InitPendingWith(&n.out, succs[0])
		preds[0].bnd.PrepareWith(&n.in, n)
		ts := t.src.Advance()
		preds[0].next.at(0).Store(n)
		preds[0].bnd.Finalize(&n.in, ts) // the node's label and the edge's: one word
		n.bnd.Finalize(&n.out, ts)
		t.tr.Span(th.ID, trace.PhaseLabel, lb)
		for l := 1; l < topLevel; l++ {
			preds[l].next.at(l).Store(n)
		}
		n.fullyLinked.Store(true)
		t.truncate(th, preds[0])
		unlockPreds(&locked, nl)
		noteRetries(t.tr, th, retries)
		return true
	}
}

// Delete removes key; it returns false if absent.
func (t *List) Delete(th *core.Thread, key uint64) bool {
	var preds, succs [maxLevel]*node
	var victim *node
	for {
		lFound := t.find(key, &preds, &succs)
		if lFound == -1 {
			return false
		}
		victim = succs[lFound]
		// Contains answers true from the moment the insert is labeled, so
		// an insert still linking its tower is waited out, not reported
		// absent (it holds no lock this thread needs).
		for !victim.fullyLinked.Load() {
			runtime.Gosched()
		}
		if int(victim.topLevel) == lFound+1 {
			break
		}
		// Found below its top: the search overlapped the tower going up,
		// or another delete taking it down (then the key soon is absent).
		runtime.Gosched()
	}
	victim.Lock()
	if victim.dts.Load() != 0 {
		victim.Unlock()
		return false
	}
	victim.dts.Store(core.Pending) // claim; not yet linearized
	top := int(victim.topLevel)
	var locked [maxLevel]*node
	var retries uint64
	for {
		nl := lockPreds(&preds, &locked, top)
		valid := true
		for l := 0; l < top; l++ {
			if !alive(preds[l]) || preds[l].next.at(l).Load() != victim {
				valid = false
				break
			}
		}
		if valid {
			lb := t.tr.Now()
			ePred := preds[0].bnd.PrepareIn(t.ep, th.ID, victim.next.at(0).Load())
			ts := t.src.Advance()
			victim.dts.Store(ts) // linearization of the delete
			preds[0].bnd.Finalize(ePred, ts)
			t.tr.Span(th.ID, trace.PhaseLabel, lb)
			for l := top - 1; l >= 0; l-- {
				preds[l].next.at(l).Store(victim.next.at(l).Load())
			}
			// The victim's bundle is final (it is locked and no insert
			// validates against a dead predecessor): cut it too, or what its
			// entries lead to stays reachable for as long as the victim does.
			t.truncate(th, preds[0])
			t.truncate(th, victim)
			unlockPreds(&locked, nl)
			victim.Unlock()
			noteRetries(t.tr, th, retries)
			return true
		}
		unlockPreds(&locked, nl)
		retries++
		t.find(key, &preds, &succs)
	}
}

// truncate trims the bundle a completed update just extended.
func (t *List) truncate(th *core.Thread, n *node) {
	if d := n.bnd.Truncate(core.PruneBoundOf(th, t.rb, t.src)); d > 0 && t.gc != nil {
		t.gc.BundlePruned.Add(uint64(d))
	}
}

// visibleAt reports membership of n in the snapshot at bound s under the
// in.ts/dts protocol.
func visibleAt(n *node, s core.TS) bool {
	it := n.in.TS()
	if it == core.Pending || it > s {
		return false
	}
	d := n.dts.Load()
	return d == 0 || d == core.Pending || d > s
}

// RangeQuery appends every pair with lo <= key <= hi as of one
// linearizable snapshot. The upper levels (untimestamped) only position
// the query near lo; the walk itself follows bottom-level bundles.
func (t *List) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s; the caller holds th's
// reservation (DESIGN.md, "Snapshot reads").
func (t *List) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	if lo == 0 {
		lo = 1
	}
	if hi > MaxKey {
		hi = MaxKey
	}
	tr := t.tr
	th.AnnounceRQ(s)

	// Position via the current index, then verify the landing point was
	// part of the snapshot; if not (inserted or deleted around s), fall
	// back to the head, which is in every snapshot.
	mark := tr.Now()
	pred := t.head
	for l := maxLevel - 1; l >= 0; l-- {
		cur := pred.next.at(l).Load()
		for cur != nil && cur.key < lo {
			pred = cur
			cur = cur.next.at(l).Load()
		}
	}
	if pred != t.head && !visibleAt(pred, s) {
		pred = t.head
	}
	var derefs, spins uint64
	cur, ok, d, sp := pred.bnd.PtrAtWalk(s)
	derefs, spins = uint64(d), uint64(sp)
	for ok && cur != nil && cur.key <= hi {
		if cur.key >= lo {
			out = append(out, core.KV{Key: cur.key, Val: cur.val})
		}
		cur, ok, d, sp = cur.bnd.PtrAtWalk(s)
		derefs += uint64(d)
		spins += uint64(sp)
	}
	tr.Span(th.ID, trace.PhaseTraverse, mark)
	tr.Count(th.ID, trace.PhaseBundleDeref, derefs)
	tr.Count(th.ID, trace.PhasePendingWait, spins)
	th.DoneRQ()
	return out
}

// Len counts present keys; quiescent use only (tests).
func (t *List) Len() int {
	n := 0
	for cur := t.head.next.at(0).Load(); cur != nil; cur = cur.next.at(0).Load() {
		n++
	}
	return n
}
