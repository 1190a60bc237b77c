package citrus

import (
	"sync"
	"sync/atomic"

	"tscds/internal/bundle"
	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
	"tscds/internal/rcu"
)

// bnode is a Citrus node whose child links each carry a bundle: the raw
// pointer serves searches and updates, the bundle serves snapshot
// traversals. Both change together under the node's lock.
type bnode struct {
	key, val uint64
	mu       sync.Mutex
	marked   bool
	tag      atomic.Uint32 // see citrus.go: bumped when a child link goes back to nil
	child    [2]atomic.Pointer[bnode]
	bnd      [2]bundle.Bundle[bnode]
}

func newBnode(key, val uint64) *bnode {
	n := &bnode{key: key, val: val}
	n.bnd[0].Init(nil)
	n.bnd[1].Init(nil)
	return n
}

// setChild updates a link and records the change in its bundle, labeled
// with one Source.Advance — with a logical source this is the
// fetch-and-add each update pays; with TSC it is a core-local read, the
// difference Figure 3's Bundle vs Bundle-RDTSCP series measures. A link
// going back to nil bumps the node's tag; the bundle just extended is
// trimmed to what active range queries can still read.
func (t *BundleTree) setChild(n *bnode, dir int, target *bnode, th *core.Thread) {
	if target == nil {
		n.tag.Add(1)
	}
	// The Prepare..Finalize window is bundling's labeling phase: the
	// span readers can block on (pending-entry spins).
	mark := t.tr.Now()
	e := n.bnd[dir].PrepareIn(t.ep, th.ID, target)
	ts := t.src.Advance() // before the raw store: invisible until stamped
	n.child[dir].Store(target)
	n.bnd[dir].Finalize(e, ts)
	t.tr.SharedSpan(trace.PhaseLabel, mark)
	if d := n.bnd[dir].Truncate(core.PruneBoundOf(th, t.rb, t.src)); d > 0 && t.gc != nil {
		t.gc.BundlePruned.Add(uint64(d))
	}
}

// BundleTree is the Citrus tree augmented with bundled references.
type BundleTree struct {
	src  core.Source
	reg  *core.Registry
	rcu  *rcu.RCU
	gc   *obs.GC
	tr   *trace.Recorder
	np   *pool.Pool[bnode]
	ep   *pool.Pool[bundle.Entry[bnode]]
	rb   *core.ReadBound
	rd   *core.Reader
	root *bnode
}

// NewBundle builds an empty tree over the given source and registry.
func NewBundle(src core.Source, reg *core.Registry) *BundleTree {
	t := &BundleTree{
		src:  src,
		reg:  reg,
		rcu:  rcu.New(reg),
		root: newBnode(sentinelKey, 0),
	}
	t.rd = core.NewReader(src, core.QueryReads, t)
	return t
}

// Source returns the tree's timestamp source.
func (t *BundleTree) Source() core.Source { return t.src }

// Reader returns the tree's snapshot-read protocol.
func (t *BundleTree) Reader() *core.Reader { return t.rd }

// SetHooks wires the tree's sinks: GC counters, the flight recorder
// (label spans, validation retries, range-query spans, bundle-dereference
// depth, pending-entry waits), the retention watermark entry truncation
// respects, and the allocation mode of nodes and bundle entries. Every
// node is published under locks after validation and truncated entry
// tails stay reachable to snapshot readers, so nothing ever flows back to
// the pools — they supply arena chunking and batching only. Call before
// the tree sees concurrent traffic.
func (t *BundleTree) SetHooks(h core.Hooks) {
	t.gc, t.tr, t.rb = h.GC, h.Trace, h.ReadBound
	t.rd.SetHooks(h)
	t.np = pool.New[bnode](t.reg.Cap(), h.Alloc, h.PoolStats)
	t.ep = pool.New[bundle.Entry[bnode]](t.reg.Cap(), h.Alloc, h.PoolStats)
}

// newBnodeIn is newBnode drawing the node and its two seed entries from
// the pools, with the child links seeded directly.
func (t *BundleTree) newBnodeIn(tid int, key, val uint64, left, right *bnode) *bnode {
	if t.np == nil {
		n := newBnode(key, val)
		if left != nil || right != nil {
			n.child[0].Store(left)
			n.child[1].Store(right)
			n.bnd[0].Init(left)
			n.bnd[1].Init(right)
		}
		return n
	}
	n := t.np.Get(tid)
	n.key, n.val = key, val
	n.marked = false
	n.child[0].Store(left)
	n.child[1].Store(right)
	n.bnd[0].InitIn(t.ep, tid, left)
	n.bnd[1].InitIn(t.ep, tid, right)
	return n
}

func (t *BundleTree) noteRetries(th *core.Thread, retries uint64) {
	if t.tr == nil {
		return
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
}

// traverse returns the node holding key (nil if absent), its parent, and
// the parent's tag, read inside the same RCU read-side section.
func (t *BundleTree) traverse(tid int, key uint64) (prev, curr *bnode, tag uint32) {
	t.rcu.ReadLock(tid)
	prev = t.root
	curr = prev.child[dirOf(key, prev.key)].Load()
	for curr != nil && curr.key != key {
		prev = curr
		curr = curr.child[dirOf(key, curr.key)].Load()
	}
	tag = prev.tag.Load()
	t.rcu.ReadUnlock(tid)
	return prev, curr, tag
}

// Contains reports whether key is present.
func (t *BundleTree) Contains(th *core.Thread, key uint64) bool {
	_, curr, _ := t.traverse(th.ID, key)
	return curr != nil
}

// Get returns the value stored at key.
func (t *BundleTree) Get(th *core.Thread, key uint64) (uint64, bool) {
	_, curr, _ := t.traverse(th.ID, key)
	if curr == nil {
		return 0, false
	}
	return curr.val, true
}

func (t *BundleTree) validateLink(prev *bnode, dir int, curr *bnode) bool {
	return !prev.marked && prev.child[dir].Load() == curr
}

// validateInsert is validateLink for an empty slot found with the given
// tag: still empty, and never refilled and emptied in between.
func (t *BundleTree) validateInsert(prev *bnode, dir int, tag uint32) bool {
	return t.validateLink(prev, dir, nil) && prev.tag.Load() == tag
}

// Insert adds key with val; it returns false if already present.
func (t *BundleTree) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxKey {
		return false
	}
	var retries uint64
	for {
		prev, curr, tag := t.traverse(th.ID, key)
		if curr != nil {
			t.noteRetries(th, retries)
			return false
		}
		dir := dirOf(key, prev.key)
		prev.mu.Lock()
		if !t.validateInsert(prev, dir, tag) {
			prev.mu.Unlock()
			retries++
			continue
		}
		am := t.tr.Now()
		n := t.newBnodeIn(th.ID, key, val, nil, nil)
		t.tr.Span(th.ID, trace.PhaseAlloc, am)
		t.setChild(prev, dir, n, th)
		prev.mu.Unlock()
		t.noteRetries(th, retries)
		return true
	}
}

// Delete removes key; it returns false if absent.
func (t *BundleTree) Delete(th *core.Thread, key uint64) bool {
	if key > MaxKey {
		return false
	}
	var retries uint64
	for {
		prev, curr, _ := t.traverse(th.ID, key)
		if curr == nil {
			t.noteRetries(th, retries)
			return false
		}
		dir := dirOf(key, prev.key)
		prev.mu.Lock()
		curr.mu.Lock()
		if curr.marked || !t.validateLink(prev, dir, curr) {
			curr.mu.Unlock()
			prev.mu.Unlock()
			retries++
			continue
		}
		left := curr.child[0].Load()
		right := curr.child[1].Load()
		if left == nil || right == nil {
			repl := left
			if repl == nil {
				repl = right
			}
			curr.marked = true
			t.setChild(prev, dir, repl, th)
			curr.mu.Unlock()
			prev.mu.Unlock()
			t.noteRetries(th, retries)
			return true
		}
		if t.deleteTwoChildren(th, prev, dir, curr, left, right) {
			curr.mu.Unlock()
			prev.mu.Unlock()
			t.noteRetries(th, retries)
			return true
		}
		curr.mu.Unlock()
		prev.mu.Unlock()
		retries++
	}
}

func (t *BundleTree) deleteTwoChildren(th *core.Thread, prev *bnode, dir int, curr, left, right *bnode) bool {
	succPrev := curr
	succ := right
	for {
		next := succ.child[0].Load()
		if next == nil {
			break
		}
		succPrev = succ
		succ = next
	}
	if succPrev != curr {
		succPrev.mu.Lock()
	}
	succ.mu.Lock()
	valid := !succ.marked && !succPrev.marked && succ.child[0].Load() == nil
	if succPrev == curr {
		valid = valid && succPrev.child[1].Load() == succ
	} else {
		valid = valid && succPrev.child[0].Load() == succ
	}
	if !valid {
		succ.mu.Unlock()
		if succPrev != curr {
			succPrev.mu.Unlock()
		}
		return false
	}

	n := t.newBnodeIn(th.ID, succ.key, succ.val, left, right)
	n.mu.Lock()

	curr.marked = true
	t.setChild(prev, dir, n, th) // key removed; successor's key duplicated until unlink

	t.rcu.Synchronize()

	succ.marked = true
	succRight := succ.child[1].Load()
	if succPrev == curr {
		t.setChild(n, 1, succRight, th)
	} else {
		t.setChild(succPrev, 0, succRight, th)
	}

	n.mu.Unlock()
	succ.mu.Unlock()
	if succPrev != curr {
		succPrev.mu.Unlock()
	}
	return true
}

// RangeQuery appends every pair with lo <= key <= hi as of one
// linearizable snapshot.
func (t *BundleTree) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s; the caller holds th's
// reservation (DESIGN.md, "Snapshot reads").
func (t *BundleTree) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	if hi > MaxKey {
		hi = MaxKey
	}
	tr := t.tr
	var mark uint64
	if tr != nil {
		mark = tr.Now()
	}
	th.AnnounceRQ(s)
	base := len(out)
	var w bwalk
	out = t.collect(t.childAt(t.root, 0, s, &w), lo, hi, s, base, out, &w)
	if tr != nil {
		tr.Span(th.ID, trace.PhaseTraverse, mark)
		tr.Count(th.ID, trace.PhaseBundleDeref, w.depth)
		tr.Count(th.ID, trace.PhasePendingWait, w.spins)
	}
	th.DoneRQ()
	return out
}

// bwalk accumulates one range query's bundle-walk costs.
type bwalk struct {
	depth, spins uint64
}

func (t *BundleTree) childAt(n *bnode, dir int, s core.TS, w *bwalk) *bnode {
	c, _, depth, spins := n.bnd[dir].PtrAtWalk(s)
	w.depth += uint64(depth)
	w.spins += uint64(spins)
	return c
}

func (t *BundleTree) collect(n *bnode, lo, hi uint64, s core.TS, base int, out []core.KV, w *bwalk) []core.KV {
	if n == nil {
		return out
	}
	if lo < n.key {
		out = t.collect(t.childAt(n, 0, s, w), lo, hi, s, base, out, w)
	}
	if n.key >= lo && n.key <= hi {
		if len(out) == base || out[len(out)-1].Key != n.key {
			out = append(out, core.KV{Key: n.key, Val: n.val})
		}
	}
	if hi > n.key {
		out = t.collect(t.childAt(n, 1, s, w), lo, hi, s, base, out, w)
	}
	return out
}

// Len counts present keys; quiescent use only (tests).
func (t *BundleTree) Len() int {
	n := 0
	var walk func(*bnode)
	walk = func(x *bnode) {
		if x == nil {
			return
		}
		n++
		walk(x.child[0].Load())
		walk(x.child[1].Load())
	}
	walk(t.root.child[0].Load())
	return n
}
