// Package skiplist is a lock-based lazy skip list (Herlihy, Lev, Luchangco,
// Shavit, "A simple optimistic skiplist algorithm", SIROCCO 2007)
// augmented with bundled references on the bottom-level links — the
// combination of the paper's Figure 5, where TSC helps only update-heavy
// mixes because the skip list's own traversal, not the timestamp,
// bounds read-heavy throughput.
//
// Linearization protocol. Every node carries an insertion timestamp and
// a deletion timestamp in addition to its bundle entries:
//
//	its: Pending -> t   (assigned by the inserting op)
//	dts: 0 -> Pending -> t  (0 = alive, Pending = delete claimed,
//	                         t = delete linearized)
//
// Updates assign the node label BEFORE finalizing the bundle entries with
// the same timestamp. Elemental reads treat a Pending label as "the
// update has not linearized yet". This single-instant discipline keeps
// contains and range queries mutually linearizable: once a range query
// can observe an update through a finalized bundle entry, every later
// contains observes its node label, and vice versa.
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

// MaxKey is the largest insertable key.
const MaxKey = ^uint64(0) - 2

type node struct {
	key, val    uint64
	mu          sync.Mutex
	fullyLinked atomic.Bool
	its, dts    atomic.Uint64
	topLevel    int // number of levels this node occupies (1..maxLevel)
	next        []atomic.Pointer[node]
	bnd         bundle.Bundle[node]
}

func newNode(key, val uint64, topLevel int) *node {
	n := &node{key: key, val: val, topLevel: topLevel}
	n.next = make([]atomic.Pointer[node], topLevel)
	n.its.Store(uint64(core.Pending))
	return n
}

// removable reports whether the node counts as logically present for
// link validation (not deleted nor claimed by a deleter).
func alive(n *node) bool { return n.dts.Load() == 0 }

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
	head.its.Store(0)
	head.fullyLinked.Store(true)
	head.bnd.Init(nil)
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
// of nodes and bundle entries. The bundled list has no reclamation scheme
// for nodes — unlinked nodes and truncated entry tails stay reachable to
// in-flight readers and are dropped to the GC — so pooling here is
// allocation-side only: arena chunking and sync.Pool batching, never
// recycling of published memory. Call before the list sees concurrent
// traffic.
func (t *List) SetHooks(h core.Hooks) {
	t.gc, t.tr, t.rb = h.GC, h.Trace, h.ReadBound
	t.rd.SetHooks(h)
	t.np = pool.New[node](t.reg.Cap(), h.Alloc, h.PoolStats)
	t.ep = pool.New[bundle.Entry[node]](t.reg.Cap(), h.Alloc, h.PoolStats)
}

// newNodeIn is newNode drawing from the node pool when one is configured.
// Nodes are never Put back (no reclamation), so pooled memory is always
// fresh from an arena chunk or the allocator; the reset mirrors newNode
// regardless, keeping the constructor correct if recycling is ever added.
func (t *List) newNodeIn(tid int, key, val uint64, topLevel int) *node {
	if t.np == nil {
		return newNode(key, val, topLevel)
	}
	n := t.np.Get(tid)
	n.key, n.val = key, val
	n.topLevel = topLevel
	n.its.Store(uint64(core.Pending))
	n.dts.Store(0)
	n.fullyLinked.Store(false)
	if cap(n.next) >= topLevel {
		n.next = n.next[:topLevel]
		for l := range n.next {
			n.next[l].Store(nil)
		}
	} else {
		n.next = make([]atomic.Pointer[node], topLevel)
	}
	return n
}

// noteRetries reports an update's validation-failure retries.
func (t *List) noteRetries(th *core.Thread, retries uint64) {
	if t.tr == nil || retries == 0 {
		return
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
}

func (t *List) randLevel(tid int) int {
	x := t.rngs[tid].Load()
	if x == 0 {
		x = uint64(tid)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rngs[tid].Store(x)
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
		cur := pred.next[l].Load()
		for cur != nil && cur.key < key {
			pred = cur
			cur = cur.next[l].Load()
		}
		if lFound == -1 && cur != nil && cur.key == key {
			lFound = l
		}
		preds[l] = pred
		succs[l] = cur
	}
	return lFound
}

// Contains reports whether key is present. A node whose insertion label
// is still pending has not linearized; a node whose deletion label is
// claimed but unassigned still has.
func (t *List) Contains(_ *core.Thread, key uint64) bool {
	pred := t.head
	for l := maxLevel - 1; l >= 0; l-- {
		cur := pred.next[l].Load()
		for cur != nil && cur.key < key {
			pred = cur
			cur = cur.next[l].Load()
		}
		if cur != nil && cur.key == key {
			if cur.its.Load() == uint64(core.Pending) {
				return false // insert not yet linearized
			}
			d := cur.dts.Load()
			return d == 0 || d == uint64(core.Pending)
		}
	}
	return false
}

// Get returns the value stored at key.
func (t *List) Get(th *core.Thread, key uint64) (uint64, bool) {
	var preds, succs [maxLevel]*node
	if l := t.find(key, &preds, &succs); l != -1 {
		n := succs[l]
		if n.its.Load() == uint64(core.Pending) {
			return 0, false
		}
		if d := n.dts.Load(); d == 0 || d == uint64(core.Pending) {
			return n.val, true
		}
	}
	return 0, false
}

// lockPreds locks preds[0..top-1] bottom-up with duplicate elision and
// returns an unlock function.
func lockPreds(preds *[maxLevel]*node, top int) func() {
	var locked [maxLevel]*node
	n := 0
	var prev *node
	for l := 0; l < top; l++ {
		if preds[l] != prev {
			preds[l].mu.Lock()
			locked[n] = preds[l]
			n++
			prev = preds[l]
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			locked[i].mu.Unlock()
		}
	}
}

// Insert adds key with val; it returns false if already present.
func (t *List) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxKey || key == 0 {
		// 0 is the head sentinel's slot; the facade offsets keys.
		return false
	}
	topLevel := t.randLevel(th.ID)
	var preds, succs [maxLevel]*node
	var retries uint64
	for {
		if lFound := t.find(key, &preds, &succs); lFound != -1 {
			f := succs[lFound]
			// Wait out an in-flight insert label (a few instructions).
			for f.its.Load() == uint64(core.Pending) {
				runtime.Gosched()
			}
			if d := f.dts.Load(); d != 0 && d != uint64(core.Pending) {
				retries++
				continue // deleted; its unlink is imminent — retry
			}
			for !f.fullyLinked.Load() {
				runtime.Gosched()
			}
			t.noteRetries(th, retries)
			return false
		}
		unlock := lockPreds(&preds, topLevel)
		valid := true
		for l := 0; l < topLevel; l++ {
			succ := succs[l]
			if !alive(preds[l]) || preds[l].next[l].Load() != succ ||
				(succ != nil && !alive(succ)) {
				valid = false
				break
			}
		}
		if !valid {
			unlock()
			retries++
			continue
		}
		am := t.tr.Now()
		n := t.newNodeIn(th.ID, key, val, topLevel)
		t.tr.Span(th.ID, trace.PhaseAlloc, am)
		for l := 0; l < topLevel; l++ {
			n.next[l].Store(succs[l])
		}
		// The Prepare..Finalize window is bundling's labeling phase. The
		// timestamp is read before the node is reachable (DESIGN §6): an
		// update that hangs a key behind n must take a later one.
		lb := t.tr.Now()
		eInit := n.bnd.InitPendingIn(t.ep, th.ID, succs[0])
		ePred := preds[0].bnd.PrepareIn(t.ep, th.ID, n)
		ts := t.src.Advance()
		preds[0].next[0].Store(n)
		n.its.Store(ts) // label first: contains agrees with snapshots
		preds[0].bnd.Finalize(ePred, ts)
		n.bnd.Finalize(eInit, ts)
		t.tr.Span(th.ID, trace.PhaseLabel, lb)
		for l := 1; l < topLevel; l++ {
			preds[l].next[l].Store(n)
		}
		n.fullyLinked.Store(true)
		t.truncate(th, preds[0])
		unlock()
		t.noteRetries(th, retries)
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
		if victim.topLevel == lFound+1 {
			break
		}
		// Found below its top: the search overlapped the tower going up,
		// or another delete taking it down (then the key soon is absent).
		runtime.Gosched()
	}
	victim.mu.Lock()
	if victim.dts.Load() != 0 {
		victim.mu.Unlock()
		return false
	}
	victim.dts.Store(uint64(core.Pending)) // claim; not yet linearized
	var retries uint64
	for {
		unlock := lockPreds(&preds, victim.topLevel)
		valid := true
		for l := 0; l < victim.topLevel; l++ {
			if !alive(preds[l]) || preds[l].next[l].Load() != victim {
				valid = false
				break
			}
		}
		if valid {
			lb := t.tr.Now()
			ePred := preds[0].bnd.PrepareIn(t.ep, th.ID, victim.next[0].Load())
			ts := t.src.Advance()
			victim.dts.Store(ts) // linearization of the delete
			preds[0].bnd.Finalize(ePred, ts)
			t.tr.Span(th.ID, trace.PhaseLabel, lb)
			for l := victim.topLevel - 1; l >= 0; l-- {
				preds[l].next[l].Store(victim.next[l].Load())
			}
			t.truncate(th, preds[0])
			unlock()
			victim.mu.Unlock()
			t.noteRetries(th, retries)
			return true
		}
		unlock()
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
// its/dts protocol.
func visibleAt(n *node, s core.TS) bool {
	it := n.its.Load()
	if it == uint64(core.Pending) || it > s {
		return false
	}
	d := n.dts.Load()
	return d == 0 || d == uint64(core.Pending) || d > s
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
		cur := pred.next[l].Load()
		for cur != nil && cur.key < lo {
			pred = cur
			cur = cur.next[l].Load()
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
	for cur := t.head.next[0].Load(); cur != nil; cur = cur.next[0].Load() {
		n++
	}
	return n
}
