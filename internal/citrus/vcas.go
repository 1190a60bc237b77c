package citrus

import (
	"sync"
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
	"tscds/internal/rcu"
	"tscds/internal/vcas"
)

// vnode is a Citrus node whose child pointers are vCAS objects. Key and
// value are immutable; marked is set under the node's lock and never
// cleared.
type vnode struct {
	key, val uint64
	mu       sync.Mutex
	marked   bool
	tag      atomic.Uint32 // see citrus.go: bumped when a child link goes back to nil
	child    [2]vcas.Object[*vnode]
}

func newVnode(key, val uint64) *vnode {
	n := &vnode{key: key, val: val}
	n.child[0].Init(nil)
	n.child[1].Init(nil)
	return n
}

// VcasTree is the Citrus tree augmented with vCAS range queries.
type VcasTree struct {
	src  core.Source
	reg  *core.Registry
	rcu  *rcu.RCU
	gc   *obs.GC
	tr   *trace.Recorder
	np   *pool.Pool[vnode]
	vp   *pool.Pool[vcas.Version[*vnode]]
	rb   *core.ReadBound
	rd   *core.Reader
	root *vnode
}

// NewVcas builds an empty tree over the given source and registry.
func NewVcas(src core.Source, reg *core.Registry) *VcasTree {
	t := &VcasTree{
		src:  src,
		reg:  reg,
		rcu:  rcu.New(reg),
		root: newVnode(sentinelKey, 0),
	}
	t.rd = core.NewReader(src, core.QueryAdvances, t)
	return t
}

// Source returns the tree's timestamp source.
func (t *VcasTree) Source() core.Source { return t.src }

// Reader returns the tree's snapshot-read protocol.
func (t *VcasTree) Reader() *core.Reader { return t.rd }

// SetHooks wires the tree's sinks: GC counters, the flight recorder
// (validation retries, range-query spans, version-walk lengths), the
// retention watermark version truncation respects, and the allocation
// mode of nodes and vCAS versions. Every node this tree creates is
// published (creation happens under locks after validation), and
// published memory stays reachable to snapshot readers, so nothing ever
// flows back to the pools — they supply arena chunking and batching
// only. Call before the tree sees concurrent traffic.
func (t *VcasTree) SetHooks(h core.Hooks) {
	t.gc, t.tr, t.rb = h.GC, h.Trace, h.ReadBound
	t.rd.SetHooks(h)
	t.np = pool.New[vnode](t.reg.Cap(), h.Alloc, h.PoolStats)
	t.vp = pool.New[vcas.Version[*vnode]](t.reg.Cap(), h.Alloc, h.PoolStats)
}

// newVnodeIn is newVnode drawing the node and its two seed versions from
// the pools, with the children seeded directly (newVnode seeds nil and
// deleteTwoChildren re-Inits, wasting two versions on the pooled path).
func (t *VcasTree) newVnodeIn(tid int, key, val uint64, left, right *vnode) *vnode {
	if t.np == nil {
		n := newVnode(key, val)
		if left != nil || right != nil {
			n.child[0].Init(left)
			n.child[1].Init(right)
		}
		return n
	}
	n := t.np.Get(tid)
	n.key, n.val = key, val
	n.marked = false
	n.child[0].InitIn(t.vp, tid, left)
	n.child[1].InitIn(t.vp, tid, right)
	return n
}

func (t *VcasTree) noteRetries(th *core.Thread, retries uint64) {
	if t.tr == nil {
		return
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
}

// traverse returns (prev, curr) where curr.key == key, or curr == nil
// with prev the would-be parent. Runs inside an RCU read section.
// traverse returns the node holding key (nil if absent), its parent, and
// the parent's tag, read inside the same RCU read-side section.
func (t *VcasTree) traverse(tid int, key uint64) (prev, curr *vnode, tag uint32) {
	t.rcu.ReadLock(tid)
	prev = t.root
	curr = prev.child[dirOf(key, prev.key)].Read(t.src)
	for curr != nil && curr.key != key {
		prev = curr
		curr = curr.child[dirOf(key, curr.key)].Read(t.src)
	}
	tag = prev.tag.Load()
	t.rcu.ReadUnlock(tid)
	return prev, curr, tag
}

// Contains reports whether key is present.
func (t *VcasTree) Contains(th *core.Thread, key uint64) bool {
	_, curr, _ := t.traverse(th.ID, key)
	return curr != nil
}

// Get returns the value stored at key.
func (t *VcasTree) Get(th *core.Thread, key uint64) (uint64, bool) {
	_, curr, _ := t.traverse(th.ID, key)
	if curr == nil {
		return 0, false
	}
	return curr.val, true
}

// validateLink re-checks, under prev's lock, that the traversal result
// still describes the tree.
func (t *VcasTree) validateLink(prev *vnode, dir int, curr *vnode) bool {
	return !prev.marked && prev.child[dir].Read(t.src) == curr
}

// validateInsert is validateLink for an empty slot found with the given
// tag: still empty, and never refilled and emptied in between.
func (t *VcasTree) validateInsert(prev *vnode, dir int, tag uint32) bool {
	return t.validateLink(prev, dir, nil) && prev.tag.Load() == tag
}

// Insert adds key with val; it returns false if already present.
func (t *VcasTree) Insert(th *core.Thread, key, val uint64) bool {
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
		n := t.newVnodeIn(th.ID, key, val, nil, nil)
		t.tr.Span(th.ID, trace.PhaseAlloc, am)
		t.setChild(prev, dir, n, th)
		prev.mu.Unlock()
		t.noteRetries(th, retries)
		return true
	}
}

// Delete removes key; it returns false if absent.
func (t *VcasTree) Delete(th *core.Thread, key uint64) bool {
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
		left := curr.child[0].Read(t.src)
		right := curr.child[1].Read(t.src)
		if left == nil || right == nil {
			// At most one child: splice it up.
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

// setChild writes n's child link under n's lock, bumping the node's tag
// when the link goes back to nil, and trims the chain it just extended.
func (t *VcasTree) setChild(n *vnode, dir int, target *vnode, th *core.Thread) {
	if target == nil {
		n.tag.Add(1)
	}
	n.child[dir].WriteIn(t.src, t.vp, th.ID, target)
	if d := n.child[dir].Truncate(core.PruneBoundOf(th, t.rb, t.src)); d > 0 && t.gc != nil {
		t.gc.VersionsPruned.Add(uint64(d))
	}
}

// deleteTwoChildren performs Citrus's successor relocation. Caller holds
// prev and curr locks; returns false to signal a full retry.
func (t *VcasTree) deleteTwoChildren(th *core.Thread, prev *vnode, dir int, curr, left, right *vnode) bool {
	// Find the successor (leftmost node of the right subtree) and its
	// parent while holding curr's lock, so the subtree cannot be
	// relocated away — but its internals may still change, hence the
	// validation after locking.
	succPrev := curr
	succ := right
	for {
		next := succ.child[0].Read(t.src)
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
	valid := !succ.marked && !succPrev.marked &&
		succ.child[0].Read(t.src) == nil
	if succPrev == curr {
		valid = valid && succPrev.child[1].Read(t.src) == succ
	} else {
		valid = valid && succPrev.child[0].Read(t.src) == succ
	}
	if !valid {
		succ.mu.Unlock()
		if succPrev != curr {
			succPrev.mu.Unlock()
		}
		return false
	}

	n := t.newVnodeIn(th.ID, succ.key, succ.val, left, right)
	n.mu.Lock() // published locked so no writer touches it before we finish

	curr.marked = true
	t.setChild(prev, dir, n, th)

	// Wait out readers that may be en route to succ through curr.
	t.rcu.Synchronize()

	succ.marked = true
	succRight := succ.child[1].Read(t.src)
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
func (t *VcasTree) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s; the caller holds th's
// reservation (DESIGN.md, "Snapshot reads").
func (t *VcasTree) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
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
	var walk uint64
	out = t.collect(t.childAt(t.root, 0, s, &walk), lo, hi, s, base, out, &walk)
	if tr != nil {
		tr.Span(th.ID, trace.PhaseTraverse, mark)
		tr.Count(th.ID, trace.PhaseVersionWalk, walk)
	}
	th.DoneRQ()
	return out
}

// childAt reads a routing edge as of snapshot bound s, accumulating
// version-chain hops into walk.
func (t *VcasTree) childAt(n *vnode, dir int, s core.TS, walk *uint64) *vnode {
	c, _, hops := n.child[dir].ReadVersionWalk(t.src, s)
	*walk += uint64(hops)
	return c
}

// collect walks the snapshot in order, deduplicating the equal adjacent
// keys that a concurrent two-child delete can momentarily expose (the
// in-order walk of a BST is sorted, so duplicates are always adjacent).
func (t *VcasTree) collect(n *vnode, lo, hi uint64, s core.TS, base int, out []core.KV, walk *uint64) []core.KV {
	if n == nil {
		return out
	}
	if lo < n.key {
		out = t.collect(t.childAt(n, 0, s, walk), lo, hi, s, base, out, walk)
	}
	if n.key >= lo && n.key <= hi {
		if len(out) == base || out[len(out)-1].Key != n.key {
			out = append(out, core.KV{Key: n.key, Val: n.val})
		}
	}
	if hi > n.key {
		out = t.collect(t.childAt(n, 1, s, walk), lo, hi, s, base, out, walk)
	}
	return out
}

// Len counts present keys; quiescent use only (tests).
func (t *VcasTree) Len() int {
	n := 0
	var walk func(*vnode)
	walk = func(x *vnode) {
		if x == nil {
			return
		}
		n++
		walk(x.child[0].Read(t.src))
		walk(x.child[1].Read(t.src))
	}
	walk(t.root.child[0].Read(t.src))
	return n
}
