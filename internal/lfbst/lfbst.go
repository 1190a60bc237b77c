// Package lfbst holds a lock-free external binary search tree with range
// queries: Ellen, Fatourou, Ruppert and van Breugel's (PODC 2010) under vCAS
// (Wei et al.; the paper's Figure 2) and under EBR-RQ (Arbel-Raviv & Brown;
// Figure 4).
//
// The EFRB algorithm — immutable leaves, routing internal nodes, flag/mark
// descriptors with full helping — is written once, in this file, over a
// technique: vCAS below, EBR-RQ in ebr.go. A child pointer never returns to
// an old value: an insert links a new internal node over the new leaf and a
// COPY of the displaced one (EFRB's newSibling), a delete promotes a copy of
// a leaf sibling, so a helper delayed before its child CAS fails it. Every
// node is then recorded once: a vCAS node carries the version that records
// it in its parent edge, an EBR-RQ copy shares its original's labels
// (DESIGN §7).
package lfbst

import (
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/history"
	"tscds/internal/obs/trace"
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

// updateRec is the (state, info) pair CAS'd in a node's update field.
// Records have distinct addresses, so pointer-identity CAS gives exactly
// EFRB's ABA-safe pair semantics; for the same reason no record is pooled.
type updateRec[L any] struct {
	state uint8
	ins   *insertInfo[L]
	del   *deleteInfo[L]
}

// A descriptor embeds the flag and mark records it installs and carries the
// one clean record every helper unflags to. That one is its own small
// allocation because a resting node's update field holds it: embedded, it
// would keep the descriptor and the displaced leaf reachable.
type insertInfo[L any] struct {
	p, l, newInternal *node[L]
	flag              updateRec[L]  // IFLAG on p
	done              *updateRec[L] // then CLEAN
}

type deleteInfo[L any] struct {
	gp, p, l   *node[L]
	pupdate    *updateRec[L]
	flag, mark updateRec[L]  // DFLAG on gp, MARK on p
	done       *updateRec[L] // CLEAN on gp
}

// node is an EFRB node: key, value (leaves), update field (internal nodes)
// and l, the technique's part — the two edges, empty on a leaf, and
// whatever else it keeps per node.
type node[L any] struct {
	key, val uint64
	update   atomic.Pointer[updateRec[L]]
	l        L
}

// leaf tells a leaf without following an edge: only internal nodes are ever
// flagged or marked, and each starts with a clean record.
func (n *node[L]) leaf() bool { return n.update.Load() == nil }

type searchResult[L any] struct {
	gp, p, l          *node[L]
	gpupdate, pupdate *updateRec[L]
}

// technique is what vCAS and EBR-RQ differ in on this tree; DESIGN.md "What
// a technique is to a structure" states each method. A method called
// through the type parameter is a dictionary call, never inlined, so the
// per-edge loops — search and collect — are the technique's, one call per
// operation. The exported methods are the technique's lifecycle, written
// once in its own package: history.Technique for vCAS, ebrrq.Technique for
// EBR-RQ.
type technique[L any] interface {
	search(root *node[L], key uint64) searchResult[L]
	children(n *node[L]) (left, right *node[L]) // of an internal node, now
	// present: leaf l's key is in the tree now. An insert that finds l fails
	// on yes, retries on no (l's delete has linearized).
	present(l *node[L]) (uint64, bool)
	// seed: an internal node over left and right, or a leaf (left nil), a
	// copy of of if set.
	seed(n *node[L], left, right, of *node[L])
	// publish: the one child CAS, old to new in parent's edge toward new.key;
	// fresh unless new is an internal sibling moving up.
	publish(parent, old, new *node[L], fresh bool) bool
	marked(tid int, l *node[L])         // l's parent is marked; tid may be -1
	retire(th *core.Thread, l *node[L]) // before the flag CAS of a delete attempt
	truncate(th *core.Thread, key uint64, n, above *node[L])
	collect(th *core.Thread, root *node[L], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV
	Enter(tid int)
	Exit(tid int)
	Drain()
	Alloc(tid int) *node[L]
	Free(tid int, n *node[L]) // never published
}

// tree is the EFRB tree over one technique.
type tree[L any, P technique[L]] struct {
	tr    *trace.Recorder
	rd    *core.Reader
	p     P
	clean *updateRec[L] // what an internal node's update field starts at
	root  *node[L]
}

// newTree builds the tree over p, which was built with h, and reports to
// h's recorder. The sentinels come from the GC, not p's pool: they are not
// pool traffic.
func newTree[L any, P technique[L]](src core.Source, p P, rule core.Bound, h core.Hooks) *tree[L, P] {
	t := &tree[L, P]{tr: h.Trace, p: p, clean: new(updateRec[L])}
	leaf := func(key uint64) *node[L] { return t.initNode(new(node[L]), key, 0, nil, nil, nil) }
	t.root = t.initNode(new(node[L]), inf2, 0, leaf(inf1), leaf(inf2), nil)
	t.rd = core.NewReader(src, rule, t, h)
	return t
}

// Reader returns the tree's snapshot-read protocol.
func (t *tree[L, P]) Reader() *core.Reader { return t.rd }

// Drain eagerly prunes EBR-RQ's limbo lists. Quiescent use only, like Len.
func (t *tree[L, P]) Drain() { t.p.Drain() }

// newNode acquires a node from the technique and initializes it.
func (t *tree[L, P]) newNode(tid int, key, val uint64, left, right, of *node[L]) *node[L] {
	return t.initNode(t.p.Alloc(tid), key, val, left, right, of)
}

// initNode initializes all of n, from zero: internal over left and right,
// or a leaf (left nil), a copy of of if set.
func (t *tree[L, P]) initNode(n *node[L], key, val uint64, left, right, of *node[L]) *node[L] {
	*n = node[L]{key: key, val: val}
	if left != nil {
		n.update.Store(t.clean)
	}
	t.p.seed(n, left, right, of)
	return n
}

// Contains reports whether key is present.
func (t *tree[L, P]) Contains(th *core.Thread, key uint64) bool {
	_, ok := t.Get(th, key)
	return ok
}

// Get returns the value stored at key. present runs before exit: a leaf
// pruned from limbo may be recycled once this thread leaves its epoch.
func (t *tree[L, P]) Get(th *core.Thread, key uint64) (uint64, bool) {
	t.p.Enter(th.ID)
	var val uint64
	ok := false
	if l := t.p.search(t.root, key).l; l.key == key {
		val, ok = t.p.present(l)
	}
	t.p.Exit(th.ID)
	return val, ok
}

// Insert adds key with val; it returns false if key is already present. The
// new leaf is allocated once a search finds the key absent under a clean
// parent, so an insert of a present key allocates nothing.
func (t *tree[L, P]) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxKey {
		return false
	}
	t.p.Enter(th.ID)
	var nl *node[L]
	var retries, helps uint64
	inserted := false
	for {
		r := t.p.search(t.root, key)
		if r.l.key == key {
			if _, ok := t.p.present(r.l); ok {
				t.p.Free(th.ID, nl) // never published, if allocated
				break
			}
		} else if r.pupdate.state == clean {
			if nl == nil {
				am := t.tr.Now(th.ID)
				nl = t.newNode(th.ID, key, val, nil, nil, nil)
				t.tr.Span(th.ID, trace.PhaseAlloc, am)
			}
			op, sib := t.newInsert(th.ID, r.p, r.l, nl)
			if r.p.update.CompareAndSwap(r.pupdate, &op.flag) {
				t.helpInsert(op, th.ID)
				t.p.present(nl) // labeled before returning, whoever made the CAS
				t.p.truncate(th, key, r.p, r.gp)
				inserted = true
				break
			}
			t.p.Free(th.ID, op.newInternal)
			t.p.Free(th.ID, sib)
		}
		// The parent is busy, or holds a deleted leaf: help, then retry.
		if u := r.p.update.Load(); u.state != clean {
			t.help(u, th.ID)
			helps++
		}
		retries++
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
	t.tr.Count(th.ID, trace.PhaseHelp, helps)
	t.p.Exit(th.ID)
	return inserted
}

// Delete removes key; it returns false if absent.
func (t *tree[L, P]) Delete(th *core.Thread, key uint64) bool {
	if key > MaxKey {
		return false
	}
	t.p.Enter(th.ID)
	var retired *node[L] // the leaf this call last retired
	var retries, helps uint64
	deleted := false
	for {
		r := t.p.search(t.root, key)
		if _, ok := t.p.present(r.l); !ok || r.l.key != key {
			break
		}
		u := r.gpupdate
		if u.state == clean {
			u = r.pupdate
		}
		if u.state == clean {
			// Retired before any helper can splice it out; a retry meeting
			// another leaf (a copy, or the key re-inserted) retires that too.
			if retired != r.l {
				t.p.retire(th, r.l)
				retired = r.l
			}
			op := &deleteInfo[L]{gp: r.gp, p: r.p, l: r.l, pupdate: r.pupdate, done: new(updateRec[L])}
			op.flag = updateRec[L]{state: dflag, del: op}
			op.mark = updateRec[L]{state: mark, del: op}
			if r.gp.update.CompareAndSwap(r.gpupdate, &op.flag) {
				if deleted = t.helpDelete(op, th.ID); deleted {
					t.p.truncate(th, key, r.gp, nil)
					break
				}
				retries++
				continue
			}
			u = r.gp.update.Load()
		}
		t.help(u, th.ID)
		helps++
		retries++
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
	t.tr.Count(th.ID, trace.PhaseHelp, helps)
	t.p.Exit(th.ID)
	return deleted
}

// newInsert prepares inserting nl beside leaf l, p's child: a new internal
// node over nl and a copy of l, and the descriptor. It returns the copy
// too, for the pool if the flag CAS fails.
func (t *tree[L, P]) newInsert(tid int, p, l, nl *node[L]) (*insertInfo[L], *node[L]) {
	sib := t.newNode(tid, l.key, l.val, nil, nil, l)
	var ni *node[L]
	if nl.key < sib.key {
		ni = t.newNode(tid, sib.key, 0, nl, sib, nil)
	} else {
		ni = t.newNode(tid, nl.key, 0, sib, nl, nil)
	}
	op := &insertInfo[L]{p: p, l: l, newInternal: ni, done: new(updateRec[L])}
	op.flag = updateRec[L]{state: iflag, ins: op}
	return op, sib
}

// tid in the helping functions is the helping thread's slot and only routes
// the node pool; -1 is valid for callers without a slot.
func (t *tree[L, P]) help(u *updateRec[L], tid int) {
	switch u.state {
	case iflag:
		t.helpInsert(u.ins, tid)
	case dflag:
		t.helpDelete(u.del, tid)
	case mark:
		t.helpMarked(u.del, tid)
	}
}

func (t *tree[L, P]) helpInsert(op *insertInfo[L], tid int) {
	t.p.publish(op.p, op.l, op.newInternal, true)
	op.p.update.CompareAndSwap(&op.flag, op.done)
}

func (t *tree[L, P]) helpDelete(op *deleteInfo[L], tid int) bool {
	if op.p.update.CompareAndSwap(op.pupdate, &op.mark) || op.p.update.Load() == &op.mark {
		t.helpMarked(op, tid) // marked, by this call or another helper
		return true
	}
	// The parent changed under us: unflag the grandparent so the deleter
	// retries.
	t.help(op.p.update.Load(), tid)
	op.gp.update.CompareAndSwap(&op.flag, op.done)
	return false
}

// helpMarked splices the sibling of the deleted leaf, frozen under the
// marked parent, into the grandparent: a leaf as a copy, an internal node
// as itself.
func (t *tree[L, P]) helpMarked(op *deleteInfo[L], tid int) {
	t.p.marked(tid, op.l)
	other, right := t.p.children(op.p)
	if other == op.l {
		other = right
	}
	if !other.leaf() {
		t.p.publish(op.gp, op.p, other, false)
	} else if c := t.newNode(tid, other.key, other.val, nil, nil, other); !t.p.publish(op.gp, op.p, c, true) {
		t.p.Free(tid, c)
	}
	op.gp.update.CompareAndSwap(&op.flag, op.done)
}

// RangeQuery appends every pair with lo <= key <= hi as of one
// linearizable snapshot.
func (t *tree[L, P]) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s, which the caller took
// by the technique's rule and announced on th (DESIGN.md, "Snapshot
// reads").
func (t *tree[L, P]) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	if hi > MaxKey {
		hi = MaxKey
	}
	t.p.Enter(th.ID)
	mark := t.tr.Now(th.ID)
	out = t.p.collect(th, t.root, lo, hi, s, mark, out)
	t.p.Exit(th.ID)
	return out
}

// Len counts present keys; quiescent use only (tests).
func (t *tree[L, P]) Len() int {
	var count func(*node[L]) int
	count = func(n *node[L]) int {
		if !n.leaf() {
			left, right := t.p.children(n)
			return count(left) + count(right)
		}
		if _, ok := t.p.present(n); ok && n.key <= MaxKey {
			return 1
		}
		return 0
	}
	return count(t.root)
}

// vlinks are the edges as vCAS objects and the version that records the
// node in its one edge: with key, value and update field one cache line, so
// following an edge lands on the child's own line (TestNodeIsOneCacheLine).
type vlinks struct {
	left, right history.Chain[*node[vlinks]]
	ver         history.Entry[*node[vlinks]]
}

func (v *vlinks) leaf() bool { return v.left.Head() == nil }

// child returns the edge toward key at a node keyed at.
func (v *vlinks) child(key, at uint64) *history.Chain[*node[vlinks]] {
	if key < at {
		return &v.left
	}
	return &v.right
}

// Tree is the vCAS-augmented EFRB tree.
type Tree = tree[vlinks, *vcasTechnique]

// vcasTechnique is vCAS (Wei et al.) as this tree's edges: every read of an
// edge labels its head version first, and a child CAS installs a pending
// version and labels it. Snapshots live in the edges, so there is nothing
// to retire, and a leaf the edges reach is present.
type vcasTechnique struct {
	history.Technique[node[vlinks]]
}

// New creates an empty tree over the given timestamp source and thread
// registry, wired to the sinks of h (at most one; none wires nothing).
func New(src core.Source, reg *core.Registry, h ...core.Hooks) *Tree {
	hk := core.HooksOf(h)
	p := &vcasTechnique{history.NewTechnique[node[vlinks]](src, history.VCAS, hk)}
	return newTree(src, p, core.QueryAdvances, hk)
}

func (*vcasTechnique) present(l *node[vlinks]) (uint64, bool) { return l.val, true }
func (*vcasTechnique) marked(int, *node[vlinks])              {}
func (*vcasTechnique) retire(*core.Thread, *node[vlinks])     {}

func (p *vcasTechnique) search(root *node[vlinks], key uint64) searchResult[vlinks] {
	var r searchResult[vlinks]
	r.l = root
	for !r.l.l.leaf() {
		r.gp, r.p = r.p, r.l
		r.gpupdate = r.pupdate
		r.pupdate = r.p.update.Load()
		r.l = r.p.l.child(key, r.p.key).Read(p.Src)
	}
	return r
}

func (p *vcasTechnique) children(n *node[vlinks]) (*node[vlinks], *node[vlinks]) {
	return n.l.left.Read(p.Src), n.l.right.Read(p.Src)
}

// seed points an internal node's edges at its unpublished children's
// embedded versions, labeled 0, and arms the node's own for the one CAS
// that installs it. A new leaf's is seeded by its parent's seed; a copy may
// be published by a delete's CAS, so it is armed too.
func (p *vcasTechnique) seed(n, left, right, of *node[vlinks]) {
	if left != nil {
		n.l.left.InitWith(&left.l.ver, left)
		n.l.right.InitWith(&right.l.ver, right)
	}
	if left != nil || of != nil {
		n.l.ver.Arm(n)
	}
}

// publish installs a fresh node's own armed version, shared by every
// helper. An internal sibling's heads its old parent's chain, which older
// snapshots still walk, so a standalone version records it in the new edge.
func (p *vcasTechnique) publish(parent, old, new *node[vlinks], fresh bool) bool {
	edge := parent.l.child(new.key, parent.key)
	if fresh {
		return edge.CompareAndSwapVersion(p.Src, old, &new.l.ver)
	}
	return edge.CompareAndSwap(p.Src, old, new)
}

// truncate bounds history to what active range queries can read. An insert
// passes the node above too: what n's own version displaced there stays
// reachable until that edge is written again — for most nodes, never.
func (p *vcasTechnique) truncate(th *core.Thread, key uint64, n, above *node[vlinks]) {
	if above == nil {
		p.Trim(th, n.l.child(key, n.key))
		return
	}
	p.Trim(th, n.l.child(key, n.key), above.l.child(key, above.key))
}

func (p *vcasTechnique) collect(th *core.Thread, root *node[vlinks], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV {
	var walk uint64
	out = p.collectAt(root, lo, hi, s, out, &walk)
	p.Tr.Span(th.ID, trace.PhaseTraverse, mark)
	p.Tr.Count(th.ID, trace.PhaseVersionWalk, walk)
	return out
}

// collectAt appends the leaves of [lo, hi] under n as of s, counting the
// version-chain hops past the edges' heads.
func (p *vcasTechnique) collectAt(n *node[vlinks], lo, hi uint64, s core.TS, out []core.KV, walk *uint64) []core.KV {
	if n.l.leaf() {
		if n.key >= lo && n.key <= hi {
			out = append(out, core.KV{Key: n.key, Val: n.val})
		}
		return out
	}
	if lo < n.key {
		if l, ok, hops := n.l.left.ReadAt(p.Src, s); ok {
			*walk += uint64(hops)
			out = p.collectAt(l, lo, hi, s, out, walk)
		}
	}
	if hi >= n.key {
		if r, ok, hops := n.l.right.ReadAt(p.Src, s); ok {
			*walk += uint64(hops)
			out = p.collectAt(r, lo, hi, s, out, walk)
		}
	}
	return out
}
