// Package lfbst holds a lock-free external binary search tree with range
// queries: Ellen, Fatourou, Ruppert and van Breugel's (PODC 2010) under vCAS
// (Wei et al.; the paper's Figure 2) and under EBR-RQ (Arbel-Raviv & Brown;
// Figure 4).
//
// The EFRB algorithm — immutable leaves, routing internal nodes, flag/mark
// update words with full helping — is written once, in this file, over a
// technique: vCAS below, EBR-RQ in ebr.go. An update allocates no
// descriptor: each thread slot reuses one, and a node's update field is one
// word naming (slot, sequence, state); a helper acts on a slot's fields
// only while its sequence still matches the word's. A child pointer never
// returns to an old value: an insert links a new internal node over the new
// leaf and a COPY of the displaced one (EFRB's newSibling), a delete
// promotes a copy of a leaf sibling, so a helper delayed before its child
// CAS fails it. Every node is then recorded once: a vCAS node carries the
// version that records it in its parent edge, an EBR-RQ copy shares its
// original's labels (DESIGN §7).
package lfbst

import (
	"cmp"
	"fmt"
	"math/bits"
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

// An update word is an internal node's EFRB update field in one word: the
// state in its low two bits, above them the thread slot and that slot's
// sequence number of the attempt that wrote it. Every attempt has its own
// (slot, sequence), so a word is never written twice and a CAS on it has
// EFRB's ABA-safe (state, info) semantics. A leaf's word is 0. An internal
// node no attempt has flagged yet holds fresh: clean, slot and sequence 0,
// which no attempt writes, as a slot's sequences start at 1.
const (
	mark uint64 = iota
	iflag
	dflag
	clean
	stateBits  = 2
	stateMask  = 1<<stateBits - 1
	fresh      = clean
	minSeqBits = 44
	// MaxThreads is the largest registry a tree takes: its slot numbers
	// leave at least minSeqBits of the word to the sequence.
	MaxThreads = 1 << (64 - stateBits - minSeqBits)
)

// desc is a thread slot's one EFRB descriptor, reused by every update
// attempt the slot makes (Arbel-Raviv and Brown, "Reuse, don't recycle").
// The owner bumps seq, stores the attempt's fields — p, l and the new
// internal node of an insert; gp, p, l and p's expected word of a delete —
// and then CASes a word carrying (slot, seq) into a node. A helper holding
// such a word loads the fields, then re-checks seq: the owner reuses the
// descriptor only once the attempt is complete, so a moved sequence proves
// there is nothing left to help. The sequence lives here, not in the
// thread handle, so it keeps rising across Release and re-registration.
// The descriptor is allocated at its slot's first update and fills one
// cache line (TestDescIsOneCacheLine).
type desc[L any] struct {
	seq          atomic.Uint64
	gp, p, l, ni atomic.Pointer[node[L]]
	pupdate      atomic.Uint64
	_            [16]byte
}

// op is one attempt as its helpers run it: the fields, and its word with
// the state cleared, whose flag, mark and clean words it CASes.
type op[L any] struct {
	gp, p, l, ni *node[L]
	pupdate      uint64
	w            uint64
}

// afterLoad, nil outside tests, runs in a helper between loading the fields
// of the attempt that wrote w and re-checking its slot's sequence.
var afterLoad func(w uint64)

// node is an EFRB node: key, value (leaves), update word (internal nodes)
// and l, the technique's part — the two edges, empty on a leaf, and
// whatever else it keeps per node.
type node[L any] struct {
	key, val uint64
	update   atomic.Uint64
	l        L
}

// leaf tells a leaf without following an edge: only internal nodes are ever
// flagged or marked, and each starts at fresh.
func (n *node[L]) leaf() bool { return n.update.Load() == 0 }

type searchResult[L any] struct {
	gp, p, l          *node[L]
	gpupdate, pupdate uint64
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
	// shape checks n's part as tree.Shape meets it; Shape, after the
	// walk, what the lifecycle holds beyond the tree.
	shape(n *node[L]) error
	Shape() error
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
	root  *node[L]
	descs []atomic.Pointer[desc[L]] // by thread slot
	words words
}

// newTree builds the tree over p, which was built with h, for reg's
// threads, and reports to h's recorder. The sentinels come from the GC, not
// p's pool: they are not pool traffic.
func newTree[L any, P technique[L]](src core.Source, reg *core.Registry, p P, rule core.Bound, h core.Hooks) (*tree[L, P], error) {
	ws, err := layout(reg.Cap())
	if err != nil {
		return nil, err
	}
	t := &tree[L, P]{tr: h.Trace, p: p, descs: make([]atomic.Pointer[desc[L]], reg.Cap()), words: ws}
	leaf := func(key uint64) *node[L] { return t.initNode(new(node[L]), key, 0, nil, nil, nil) }
	t.root = t.initNode(new(node[L]), inf2, 0, leaf(inf1), leaf(inf2), nil)
	t.rd = core.NewReader(src, rule, t, h)
	return t, nil
}

// words is where a tree's update words hold the slot and the sequence.
type words struct {
	slotMask uint64 // of a word shifted right by stateBits
	seqShift uint
}

// layout places the slot and the sequence in the update words of a tree
// for threads slots: the slot in as few bits as name them all, the
// sequence in the rest, which must be at least minSeqBits.
func layout(threads int) (words, error) {
	if threads > MaxThreads {
		return words{}, fmt.Errorf("lfbst: %d threads leave an update word under %d bits of sequence; at most %d", threads, minSeqBits, MaxThreads)
	}
	slotBits := uint(bits.Len(uint(threads - 1)))
	return words{slotMask: 1<<slotBits - 1, seqShift: stateBits + slotBits}, nil
}

// encode returns the word of slot's attempt seq, state clear.
func (ws words) encode(slot int, seq uint64) uint64 {
	return seq<<ws.seqShift | uint64(slot)<<stateBits
}

// decode returns the slot and sequence of the attempt that wrote w.
func (ws words) decode(w uint64) (slot, seq uint64) {
	return w >> stateBits & ws.slotMask, w >> ws.seqShift
}

// Reader returns the tree's snapshot-read protocol.
func (t *tree[L, P]) Reader() *core.Reader { return t.rd }

// Drain eagerly prunes EBR-RQ's limbo lists and the history trims vCAS
// defers. Quiescent use only, like Len.
func (t *tree[L, P]) Drain() { t.p.Drain() }

// newNode acquires a node from the technique and initializes it, timed as
// tid's alloc phase: every node an update or a helper makes.
func (t *tree[L, P]) newNode(tid int, key, val uint64, left, right, of *node[L]) *node[L] {
	am := t.tr.Now(tid)
	n := t.initNode(t.p.Alloc(tid), key, val, left, right, of)
	t.tr.Span(tid, trace.PhaseAlloc, am)
	return n
}

// initNode initializes all of n, from zero: internal over left and right,
// or a leaf (left nil), a copy of of if set.
func (t *tree[L, P]) initNode(n *node[L], key, val uint64, left, right, of *node[L]) *node[L] {
	*n = node[L]{key: key, val: val}
	if left != nil {
		n.update.Store(fresh)
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
		} else if r.pupdate&stateMask == clean {
			if nl == nil {
				nl = t.newNode(th.ID, key, val, nil, nil, nil)
			}
			o, sib := t.newInsert(th.ID, r.p, r.l, nl)
			if r.p.update.CompareAndSwap(r.pupdate, o.w|iflag) {
				t.helpInsert(o, th.ID)
				t.p.present(nl) // labeled before returning, whoever made the CAS
				t.p.truncate(th, key, r.p, r.gp)
				inserted = true
				break
			}
			t.p.Free(th.ID, o.ni)
			t.p.Free(th.ID, sib)
		}
		// The parent is busy, or holds a deleted leaf: help, then retry.
		if u := r.p.update.Load(); u&stateMask != clean {
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
		if u&stateMask == clean {
			u = r.pupdate
		}
		if u&stateMask == clean {
			// Retired before any helper can splice it out; a retry meeting
			// another leaf (a copy, or the key re-inserted) retires that too.
			if retired != r.l {
				t.p.retire(th, r.l)
				retired = r.l
			}
			o := t.attempt(th.ID, r.gp, r.p, r.l, nil, r.pupdate)
			if r.gp.update.CompareAndSwap(r.gpupdate, o.w|dflag) {
				if deleted = t.helpDelete(o, th.ID); deleted {
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
// node over nl and a copy of l, and the attempt. It returns the copy too,
// for the pool if the flag CAS fails.
func (t *tree[L, P]) newInsert(tid int, p, l, nl *node[L]) (op[L], *node[L]) {
	sib := t.newNode(tid, l.key, l.val, nil, nil, l)
	var ni *node[L]
	if nl.key < sib.key {
		ni = t.newNode(tid, sib.key, 0, nl, sib, nil)
	} else {
		ni = t.newNode(tid, nl.key, 0, sib, nl, nil)
	}
	return t.attempt(tid, nil, p, l, ni, 0), sib
}

// attempt starts slot tid's next update attempt in its descriptor, before
// the CAS that publishes it: an insert passes ni, a delete gp and pupdate.
func (t *tree[L, P]) attempt(tid int, gp, p, l, ni *node[L], pupdate uint64) op[L] {
	d := t.descs[tid].Load()
	if d == nil {
		d = new(desc[L])
		t.descs[tid].Store(d)
	}
	seq := d.seq.Add(1)
	if ni != nil {
		d.ni.Store(ni)
	} else {
		d.gp.Store(gp)
		d.pupdate.Store(pupdate)
	}
	d.p.Store(p)
	d.l.Store(l)
	return op[L]{gp: gp, p: p, l: l, ni: ni, pupdate: pupdate, w: t.words.encode(tid, seq)}
}

// help completes the attempt that wrote w, if it is not complete already.
// tid in the helping functions is the helping thread's slot and only routes
// the node pool; -1 is valid for callers without a slot.
func (t *tree[L, P]) help(w uint64, tid int) {
	state := w & stateMask
	if state == clean {
		return
	}
	slot, seq := t.words.decode(w)
	d := t.descs[slot].Load()
	o := op[L]{gp: d.gp.Load(), p: d.p.Load(), l: d.l.Load(), ni: d.ni.Load(), pupdate: d.pupdate.Load(), w: w &^ stateMask}
	if afterLoad != nil {
		afterLoad(w)
	}
	if d.seq.Load() != seq {
		return // the owner has moved on: the fields may be a later attempt's
	}
	switch state {
	case iflag:
		t.helpInsert(o, tid)
	case dflag:
		t.helpDelete(o, tid)
	case mark:
		t.helpMarked(o, tid)
	}
}

func (t *tree[L, P]) helpInsert(o op[L], tid int) {
	t.p.publish(o.p, o.l, o.ni, true)
	o.p.update.CompareAndSwap(o.w|iflag, o.w|clean)
}

func (t *tree[L, P]) helpDelete(o op[L], tid int) bool {
	if o.p.update.CompareAndSwap(o.pupdate, o.w|mark) || o.p.update.Load() == o.w|mark {
		t.helpMarked(o, tid) // marked, by this call or another helper
		return true
	}
	// The parent changed under us: unflag the grandparent so the deleter
	// retries.
	t.help(o.p.update.Load(), tid)
	o.gp.update.CompareAndSwap(o.w|dflag, o.w|clean)
	return false
}

// helpMarked splices the sibling of the deleted leaf, frozen under the
// marked parent, into the grandparent: a leaf as a copy, an internal node
// as itself.
func (t *tree[L, P]) helpMarked(o op[L], tid int) {
	t.p.marked(tid, o.l)
	other, right := t.p.children(o.p)
	if other == o.l {
		other = right
	}
	if !other.leaf() {
		t.p.publish(o.gp, o.p, other, false)
	} else if c := t.newNode(tid, other.key, other.val, nil, nil, other); !t.p.publish(o.gp, o.p, c, true) {
		t.p.Free(tid, c)
	}
	o.gp.update.CompareAndSwap(o.w|dflag, o.w|clean)
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

// Shape walks the tree as Drain left it, quiescent: the present keys, the
// deepest leaf and the first broken property — routing order, or an internal
// node flagged, marked or short of a child — or the technique's.
func (t *tree[L, P]) Shape() (n, depth int, err error) {
	var walk func(x *node[L], lo, hi uint64, d int)
	walk = func(x *node[L], lo, hi uint64, d int) {
		if x.key < lo || x.key > hi {
			err = cmp.Or(err, fmt.Errorf("lfbst: key %d is routed to [%d, %d]", x.key, lo, hi))
		}
		if e := t.p.shape(x); e != nil {
			err = cmp.Or(err, fmt.Errorf("lfbst: key %d: %w", x.key, e))
		}
		if x.leaf() {
			if _, ok := t.p.present(x); ok && x.key <= MaxKey {
				n++
			}
			depth = max(depth, d)
			return
		}
		left, right := t.p.children(x)
		if x.update.Load()&stateMask != clean || left == nil || right == nil {
			err = cmp.Or(err, fmt.Errorf("lfbst: internal node %d is flagged, marked or short of a child", x.key))
			return
		}
		walk(left, lo, x.key-1, d+1)
		walk(right, x.key, hi, d+1)
	}
	walk(t.root, 0, inf2, 0)
	return n, depth, cmp.Or(err, t.p.Shape())
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
// registry, wired to the sinks of h (at most one; none wires nothing). It
// panics if reg has more than MaxThreads slots, which tscds.New refuses
// with an error first.
func New(src core.Source, reg *core.Registry, h ...core.Hooks) *Tree {
	hk := core.HooksOf(h)
	p := &vcasTechnique{history.NewTechnique[node[vlinks]](src, reg, history.VCAS, hk)}
	t, err := newTree(src, reg, p, core.QueryAdvances, hk)
	if err != nil {
		panic(err)
	}
	return t
}

func (*vcasTechnique) present(l *node[vlinks]) (uint64, bool) { return l.val, true }
func (*vcasTechnique) marked(int, *node[vlinks])              {}
func (*vcasTechnique) retire(*core.Thread, *node[vlinks])     {}

func (p *vcasTechnique) shape(n *node[vlinks]) error {
	if n.l.leaf() {
		return nil
	}
	return p.Check(&n.l.left, &n.l.right)
}

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

// truncate hands the edges an update wrote to the technique's deferred
// trim, which cuts them to what active range queries can read. An insert
// passes the edge above too: a cut made there while a query held history
// back kept what n's own version displaced, and for most nodes that edge
// is never written again.
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
