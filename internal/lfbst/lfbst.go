// Package lfbst is a lock-free external (leaf-oriented) binary search
// tree in the style of Ellen, Fatourou, Ruppert and van Breugel ("Non-
// blocking binary search trees", PODC 2010), augmented with linearizable
// range queries by replacing its child pointers with vCAS objects (Wei et
// al., PPoPP 2021) — the combination evaluated in the paper's Figure 2,
// where switching the vCAS camera from a logical counter to TSC yields up
// to 5.5x.
//
// Keys live in immutable leaves; internal nodes route. Every structural
// change is exactly one child-pointer CAS, so each update receives
// exactly one version label, which is what makes the vCAS recipe apply
// verbatim. Updates coordinate through flag/mark descriptors installed in
// internal nodes' update fields, with full helping: any thread that
// encounters an in-flight operation completes it.
//
// A node is one cache line and carries the vcas.Version that records it
// in its parent edge, so following an edge lands on the child's own line:
// one miss per tree level. That is sound because a node is installed in
// at most one edge, once (Wei et al.'s recorded-once condition): an
// insert links a new internal node over a new leaf and a COPY of the
// displaced leaf (EFRB's newSibling), a delete promotes a copy of a leaf
// sibling. Only a promoted internal sibling, whose embedded version
// already heads its old parent's chain, takes a standalone Version.
package lfbst

import (
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
	"tscds/internal/vcas"
)

// Sentinel keys. Real keys must be strictly below Inf1.
const (
	inf2 = ^uint64(0)
	inf1 = ^uint64(0) - 1
	// MaxKey is the largest insertable key.
	MaxKey = ^uint64(0) - 2
)

// update-field states (EFRB).
const (
	clean uint8 = iota
	iflag
	dflag
	mark
)

// updateRec is the (state, info) pair CAS'd atomically in a node's
// update field.
type updateRec struct {
	state uint8
	ins   *insertInfo
	del   *deleteInfo
}

var cleanRec = &updateRec{state: clean}

// An operation's descriptor embeds the flag and mark records it installs,
// and carries the one clean record every helper unflags to. Each record's
// address is unique to the operation and installed at most once, so EFRB's
// pointer-identity ABA argument is unchanged. The clean record is its own
// small allocation because it is what a node's update field holds for as
// long as the node rests: embedded, it would keep the whole descriptor and
// the displaced leaf reachable.
type insertInfo struct {
	p, l, newInternal *node
	flag              updateRec  // IFLAG on p
	done              *updateRec // then CLEAN
}

type deleteInfo struct {
	gp, p, l   *node
	pupdate    *updateRec
	flag, mark updateRec  // DFLAG on gp, MARK on p
	done       *updateRec // CLEAN on gp
}

// node is exactly one cache line (TestNodeIsOneCacheLine).
type node struct {
	key uint64
	val uint64 // leaves only
	// The routing edges. A leaf is a node with no child heads.
	left, right vcas.Object[*node]
	update      atomicUpdate
	// ver records this node in the one edge it is installed in.
	ver vcas.Version[*node]
}

func (n *node) leaf() bool { return n.left.Head() == nil }

// atomicUpdate wraps the node's update field. Records have distinct
// addresses, so pointer-identity CAS gives exactly EFRB's ABA-safe
// (state, info) pair semantics.
type atomicUpdate struct {
	p atomic.Pointer[updateRec]
}

func (a *atomicUpdate) load() *updateRec {
	if v := a.p.Load(); v != nil {
		return v
	}
	return cleanRec
}

func (a *atomicUpdate) store(r *updateRec) { a.p.Store(r) }

func (a *atomicUpdate) cas(old, new *updateRec) bool {
	return a.p.CompareAndSwap(old, new)
}

// Tree is the vCAS-augmented lock-free BST. All operations require a
// registered thread handle; range queries announce their snapshot bound
// through it so version-chain truncation never outruns them.
type Tree struct {
	src  core.Source
	reg  *core.Registry
	gc   *obs.GC
	tr   *trace.Recorder
	np   *pool.Pool[node]
	vp   *pool.Pool[vcas.Version[*node]]
	rb   *core.ReadBound
	rd   *core.Reader
	root *node
}

// New creates an empty tree over the given timestamp source and thread
// registry.
func New(src core.Source, reg *core.Registry) *Tree {
	t := &Tree{src: src, reg: reg}
	t.root = t.newInternalIn(-1, inf2, t.newLeafIn(-1, inf1, 0), t.newLeafIn(-1, inf2, 0))
	t.rd = core.NewReader(src, core.QueryAdvances, t)
	return t
}

// Source returns the tree's timestamp source.
func (t *Tree) Source() core.Source { return t.src }

// Reader returns the tree's snapshot-read protocol.
func (t *Tree) Reader() *core.Reader { return t.rd }

// SetHooks wires the tree's sinks: GC counters, the flight recorder
// (update retry and helping counts, range-query spans, version-walk
// lengths), the retention watermark version truncation respects, and the
// allocation mode of tree nodes and standalone vCAS versions. The vCAS
// tree has no reclamation scheme — spliced-out nodes and truncated version
// tails stay reachable to snapshot readers — so only never-published
// memory (a node that lost its CAS, a version that lost the head race)
// flows back; the pools otherwise supply arena chunking and batching.
// Descriptors are deliberately NOT pooled: their records' pointer identity
// is what makes the EFRB (state, info) CAS ABA-safe. Call before
// concurrent traffic.
func (t *Tree) SetHooks(h core.Hooks) {
	t.gc, t.tr, t.rb = h.GC, h.Trace, h.ReadBound
	t.rd.SetHooks(h)
	t.np = pool.New[node](t.reg.Cap(), h.Alloc, h.PoolStats)
	t.vp = pool.New[vcas.Version[*node]](t.reg.Cap(), h.Alloc, h.PoolStats)
}

// newLeafIn returns an unpublished leaf from the node pool. A pooled node
// may have been an internal node in a previous life, so its child heads
// and update field are reset; its embedded version is reset by whoever
// installs it (newInternalIn seeds it, helpMarked arms it).
func (t *Tree) newLeafIn(tid int, key, val uint64) *node {
	if t.np == nil {
		return &node{key: key, val: val} // fresh memory: nothing to reset
	}
	n := t.np.Get(tid)
	n.key, n.val = key, val
	n.left.Clear()
	n.right.Clear()
	n.update.store(nil) // load() maps nil to cleanRec
	return n
}

// newInternalIn returns an unpublished internal node over the unpublished
// children l and r, whose embedded versions seed its edges; its own is
// armed for the one child CAS that installs it.
func (t *Tree) newInternalIn(tid int, key uint64, l, r *node) *node {
	n := t.np.Get(tid)
	n.key, n.val = key, 0
	n.left.InitWith(&l.ver, l)
	n.right.InitWith(&r.ver, r)
	n.update.store(cleanRec)
	n.ver.Arm(n)
	return n
}

// noteUpdate flushes an update attempt's retry/help tallies to the
// recorder (zero counts are dropped there).
func (t *Tree) noteUpdate(th *core.Thread, retries, helps uint64) {
	if t.tr == nil {
		return
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
	t.tr.Count(th.ID, trace.PhaseHelp, helps)
}

// child returns the current target of the routing edge for key at n.
func (t *Tree) child(n *node, key uint64) *vcas.Object[*node] {
	if key < n.key {
		return &n.left
	}
	return &n.right
}

type searchResult struct {
	gp, p, l          *node
	gpupdate, pupdate *updateRec
}

func (t *Tree) search(key uint64) searchResult {
	var r searchResult
	r.l = t.root
	for !r.l.leaf() {
		r.gp, r.p = r.p, r.l
		r.gpupdate = r.pupdate
		r.pupdate = r.p.update.load()
		r.l = t.child(r.p, key).Read(t.src)
	}
	return r
}

// Contains reports whether key is present.
func (t *Tree) Contains(_ *core.Thread, key uint64) bool {
	return t.search(key).l.key == key
}

// Get returns the value stored at key.
func (t *Tree) Get(_ *core.Thread, key uint64) (uint64, bool) {
	l := t.search(key).l
	if l.key != key {
		return 0, false
	}
	return l.val, true
}

// Insert adds key with val; it returns false if key is already present.
func (t *Tree) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxKey {
		return false
	}
	am := t.tr.Now()
	nl := t.newLeafIn(th.ID, key, val)
	t.tr.Span(th.ID, trace.PhaseAlloc, am)
	var retries, helps uint64
	for {
		r := t.search(key)
		if r.l.key == key {
			t.noteUpdate(th, retries, helps)
			t.np.Put(th.ID, nl) // never published
			return false
		}
		if r.pupdate.state != clean {
			t.help(r.pupdate, th.ID)
			helps++
			retries++
			continue
		}
		// The displaced leaf is copied (EFRB's newSibling), never
		// re-linked: a child pointer must not return to an old value,
		// or a delayed helper's child CAS could succeed long after its
		// operation finished and re-link a dead subtree.
		sib := t.newLeafIn(th.ID, r.l.key, r.l.val)
		var ni *node
		if key < sib.key {
			ni = t.newInternalIn(th.ID, sib.key, nl, sib)
		} else {
			ni = t.newInternalIn(th.ID, key, sib, nl)
		}
		op := &insertInfo{p: r.p, l: r.l, newInternal: ni, done: new(updateRec)}
		op.flag = updateRec{state: iflag, ins: op}
		if r.p.update.cas(r.pupdate, &op.flag) {
			t.helpInsert(op)
			t.truncate(th, key, r.p, r.gp)
			t.noteUpdate(th, retries, helps)
			return true
		}
		// The flag CAS lost, so ni and sib were never published.
		t.np.Put(th.ID, ni)
		t.np.Put(th.ID, sib)
		t.help(r.p.update.load(), th.ID)
		helps++
		retries++
	}
}

// Delete removes key; it returns false if absent.
func (t *Tree) Delete(th *core.Thread, key uint64) bool {
	if key > MaxKey {
		return false
	}
	var retries, helps uint64
	for {
		r := t.search(key)
		if r.l.key != key {
			t.noteUpdate(th, retries, helps)
			return false
		}
		if r.gpupdate.state != clean {
			t.help(r.gpupdate, th.ID)
			helps++
			retries++
			continue
		}
		if r.pupdate.state != clean {
			t.help(r.pupdate, th.ID)
			helps++
			retries++
			continue
		}
		op := &deleteInfo{gp: r.gp, p: r.p, l: r.l, pupdate: r.pupdate, done: new(updateRec)}
		op.flag = updateRec{state: dflag, del: op}
		op.mark = updateRec{state: mark, del: op}
		if r.gp.update.cas(r.gpupdate, &op.flag) {
			if t.helpDelete(op, th.ID) {
				t.truncate(th, key, r.gp, nil)
				t.noteUpdate(th, retries, helps)
				return true
			}
			retries++
			continue
		}
		t.help(r.gp.update.load(), th.ID)
		helps++
		retries++
	}
}

// tid in the helping functions is the helping thread's slot (its own,
// not the flagging thread's) and only routes pool allocations; -1 is
// valid for callers without a slot.
func (t *Tree) help(u *updateRec, tid int) {
	switch u.state {
	case iflag:
		t.helpInsert(u.ins)
	case dflag:
		t.helpDelete(u.del, tid)
	case mark:
		t.helpMarked(u.del, tid)
	}
}

// helpInsert performs the insert's single structural CAS — the vCAS write
// that receives its timestamp label — and unflags.
func (t *Tree) helpInsert(op *insertInfo) {
	ni := op.newInternal
	t.child(op.p, ni.key).CompareAndSwapVersion(t.src, op.l, &ni.ver)
	op.p.update.cas(&op.flag, op.done)
}

func (t *Tree) helpDelete(op *deleteInfo, tid int) bool {
	if op.p.update.cas(op.pupdate, &op.mark) {
		t.helpMarked(op, tid)
		return true
	}
	cur := op.p.update.load()
	if cur == &op.mark {
		// Another helper installed the mark; finish together.
		t.helpMarked(op, tid)
		return true
	}
	// The parent changed under us: back out by unflagging the
	// grandparent so the deleter retries.
	t.help(cur, tid)
	op.gp.update.cas(&op.flag, op.done)
	return false
}

func (t *Tree) helpMarked(op *deleteInfo, tid int) {
	// The parent is marked, so its children are frozen; splice the
	// sibling of the deleted leaf into the grandparent.
	var other *node
	if right := op.p.right.Read(t.src); right == op.l {
		other = op.p.left.Read(t.src)
	} else {
		other = right
	}
	// The delete's structural CAS. A leaf sibling is immutable, so a copy
	// carrying its own version takes p's place; an internal sibling's
	// embedded version already heads p's chain, so it is recorded in gp's
	// edge by a standalone one.
	edge := t.child(op.gp, other.key)
	if other.leaf() {
		c := t.newLeafIn(tid, other.key, other.val)
		c.ver.Arm(c)
		if !edge.CompareAndSwapVersion(t.src, op.p, &c.ver) {
			t.np.Put(tid, c) // never published
		}
	} else {
		edge.CompareAndSwapIn(t.src, t.vp, tid, op.p, other)
	}
	op.gp.update.cas(&op.flag, op.done)
}

// truncate trims the version chain of the edge toward key at n, which a
// completed update just extended, bounding history to what active range
// queries can still read. An insert passes the node above as well: the
// head of that edge is n's own version, and what it displaced when n was
// installed stays reachable until the edge is written again — for most
// internal nodes, never.
func (t *Tree) truncate(th *core.Thread, key uint64, n, above *node) {
	bound := core.PruneBoundOf(th, t.rb, t.src)
	d := t.child(n, key).Truncate(bound)
	if above != nil {
		d += t.child(above, key).Truncate(bound)
	}
	if d > 0 && t.gc != nil {
		t.gc.VersionsPruned.Add(uint64(d))
	}
}

// RangeQuery appends to out every pair with lo <= key <= hi as of one
// linearizable snapshot, and returns the extended slice.
func (t *Tree) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s, announcing it on th
// and withdrawing the announcement before returning; the caller holds
// th's reservation (DESIGN.md, "Snapshot reads").
func (t *Tree) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	if hi > MaxKey {
		hi = MaxKey
	}
	tr := t.tr
	var mark uint64
	if tr != nil {
		mark = tr.Now()
	}
	th.AnnounceRQ(s)
	var walk uint64
	out = t.collect(t.root, lo, hi, s, out, &walk)
	if tr != nil {
		tr.Span(th.ID, trace.PhaseTraverse, mark)
		tr.Count(th.ID, trace.PhaseVersionWalk, walk)
	}
	th.DoneRQ()
	return out
}

func (t *Tree) collect(n *node, lo, hi uint64, s core.TS, out []core.KV, walk *uint64) []core.KV {
	if n == nil {
		return out
	}
	if n.leaf() {
		if n.key >= lo && n.key <= hi {
			out = append(out, core.KV{Key: n.key, Val: n.val})
		}
		return out
	}
	if lo < n.key {
		if l, ok, hops := n.left.ReadVersionWalk(t.src, s); ok {
			*walk += uint64(hops)
			out = t.collect(l, lo, hi, s, out, walk)
		}
	}
	if hi >= n.key {
		if r, ok, hops := n.right.ReadVersionWalk(t.src, s); ok {
			*walk += uint64(hops)
			out = t.collect(r, lo, hi, s, out, walk)
		}
	}
	return out
}

// Len counts present keys; quiescent use only (tests).
func (t *Tree) Len() int {
	n := 0
	var walk func(*node)
	walk = func(x *node) {
		if x == nil {
			return
		}
		if x.leaf() {
			if x.key <= MaxKey {
				n++
			}
			return
		}
		walk(x.left.Read(t.src))
		walk(x.right.Read(t.src))
	}
	walk(t.root)
	return n
}
