package lfbst

import (
	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/vcas"
)

// This file implements the Natarajan-Mittal lock-free external BST
// ("Fast concurrent lock-free binary search trees", PPoPP 2014) with
// vCAS-versioned edges — the second lock-free tree the vCAS work
// targets. Where EFRB coordinates through descriptors in nodes, NM marks
// EDGES: a delete first FLAGS the edge to its leaf (injection, claiming
// the delete), then TAGS the sibling edge (freezing it against inserts),
// then swings the ancestor's edge past the removed chunk. Helping is
// implicit: any operation that trips over a flagged or tagged edge runs
// the cleanup itself.
//
// An edge value packs the target with its two mark bits; versioning the
// whole value means mark transitions create versions too, but snapshot
// traversals only follow .n — the delete is visible to a snapshot
// exactly from the version created by the ancestor swing, which is the
// single structural change.

// edgeVal is the (pointer, flag, tag) word stored in a versioned edge.
type edgeVal struct {
	n    *nmNode
	flag bool // the leaf below is being deleted
	tag  bool // frozen: cleanup in progress under this edge
}

type nmNode struct {
	key  uint64
	val  uint64 // leaves only
	leaf bool
	// internal nodes only:
	child [2]vcas.Object[edgeVal]
}

func nmLeaf(key, val uint64) *nmNode {
	return &nmNode{key: key, val: val, leaf: true}
}

func nmInternal(key uint64, l, r *nmNode) *nmNode {
	n := &nmNode{key: key}
	n.child[0].Init(edgeVal{n: l})
	n.child[1].Init(edgeVal{n: r})
	return n
}

// NM sentinels: three infinity keys above every real key.
const (
	nmInf0 = ^uint64(0) - 2
	nmInf1 = ^uint64(0) - 1
	nmInf2 = ^uint64(0)
)

// NMTree is the vCAS-augmented Natarajan-Mittal tree. Real keys must be
// at most MaxNMKey.
type NMTree struct {
	src core.Source
	gc  *obs.GC
	tr  *trace.Recorder
	rb  *core.ReadBound
	rd  *core.Reader
	r   *nmNode // sentinel root, key inf2
	s   *nmNode // sentinel child, key inf1
}

// MaxNMKey is the largest insertable key.
const MaxNMKey = ^uint64(0) - 3

// NewNM creates an empty tree. It takes the registry for the constructors'
// common shape only: the tree keeps no per-thread state.
func NewNM(src core.Source, _ *core.Registry) *NMTree {
	s := nmInternal(nmInf1, nmLeaf(nmInf0, 0), nmLeaf(nmInf1, 0))
	r := nmInternal(nmInf2, s, nmLeaf(nmInf2, 0))
	t := &NMTree{src: src, r: r, s: s}
	t.rd = core.NewReader(src, core.QueryAdvances, t)
	return t
}

// Reader returns the tree's snapshot-read protocol.
func (t *NMTree) Reader() *core.Reader { return t.rd }

// SetHooks wires the tree's sinks: GC counters, the flight recorder (NM
// helping is implicit — cleanup of flagged/tagged edges — so cleanup calls
// made on behalf of another operation count as help) and the retention
// watermark edge-version truncation respects. Nodes and versions come from
// the GC: published memory stays reachable to snapshot readers. Call
// before concurrent traffic.
func (t *NMTree) SetHooks(h core.Hooks) {
	t.gc, t.tr, t.rb = h.GC, h.Trace, h.ReadBound
	t.rd.SetHooks(h)
}

func (t *NMTree) noteUpdate(th *core.Thread, retries, helps uint64) {
	if t.tr == nil {
		return
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
	t.tr.Count(th.ID, trace.PhaseHelp, helps)
}

func nmDir(key, nodeKey uint64) int {
	if key < nodeKey {
		return 0
	}
	return 1
}

// seekRec captures the NM seek: ancestor→successor is the lowest
// untagged edge above parent; parent→leaf is the terminal edge.
type seekRec struct {
	ancestor, successor *nmNode
	parent              *nmNode
	leafEdge            edgeVal // observed value of parent→leaf
	leaf                *nmNode
}

func (t *NMTree) seek(key uint64) seekRec {
	var r seekRec
	r.ancestor, r.successor = t.r, t.s
	r.parent = t.s
	r.leafEdge = t.s.child[nmDir(key, t.s.key)].Read(t.src)
	cur := r.leafEdge.n
	for !cur.leaf {
		if !r.leafEdge.tag {
			r.ancestor = r.parent
			r.successor = cur
		}
		r.parent = cur
		r.leafEdge = cur.child[nmDir(key, cur.key)].Read(t.src)
		cur = r.leafEdge.n
	}
	r.leaf = cur
	return r
}

// Contains reports whether key is present. Present means reachable: a
// flagged (injected) leaf still counts until the ancestor swing, which
// is where the delete linearizes for readers and snapshots alike.
func (t *NMTree) Contains(_ *core.Thread, key uint64) bool {
	return t.seek(key).leaf.key == key
}

// Get returns the value stored at key.
func (t *NMTree) Get(_ *core.Thread, key uint64) (uint64, bool) {
	l := t.seek(key).leaf
	if l.key != key {
		return 0, false
	}
	return l.val, true
}

// Insert adds key with val; it returns false if already present. The new
// leaf is allocated once a seek finds the key absent under a clean edge, so
// an insert of a present key allocates nothing.
func (t *NMTree) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxNMKey {
		return false
	}
	var nl *nmNode
	var retries, helps uint64
	for {
		r := t.seek(key)
		if r.leaf.key == key {
			t.noteUpdate(th, retries, helps)
			return false
		}
		if r.leafEdge.flag || r.leafEdge.tag {
			t.cleanup(key, r) // help the pending delete, then retry
			helps++
			retries++
			continue
		}
		if nl == nil {
			am := t.tr.Now()
			nl = nmLeaf(key, val)
			t.tr.Span(th.ID, trace.PhaseAlloc, am)
		}
		var ni *nmNode
		if key < r.leaf.key {
			ni = nmInternal(r.leaf.key, nl, r.leaf)
		} else {
			ni = nmInternal(key, r.leaf, nl)
		}
		edge := &r.parent.child[nmDir(key, r.parent.key)]
		if edge.CompareAndSwap(t.src, r.leafEdge, edgeVal{n: ni}) {
			t.truncate(th, r.parent, key)
			t.noteUpdate(th, retries, helps)
			return true
		}
		cur := edge.Read(t.src)
		if cur.n == r.leaf && (cur.flag || cur.tag) {
			t.cleanup(key, r)
			helps++
		}
		retries++
	}
}

// Delete removes key; it returns false if absent. The NM two-phase
// protocol: injection (flag the leaf edge, claiming the delete), then
// cleanup (tag the sibling edge and swing the ancestor), with helpers
// able to finish the cleanup on the owner's behalf.
func (t *NMTree) Delete(th *core.Thread, key uint64) bool {
	if key > MaxNMKey {
		return false
	}
	injected := false
	var leaf *nmNode
	var retries, helps uint64
	for {
		r := t.seek(key)
		if !injected {
			if r.leaf.key != key {
				t.noteUpdate(th, retries, helps)
				return false
			}
			if r.leafEdge.flag || r.leafEdge.tag {
				t.cleanup(key, r) // another delete owns it; help and retry
				helps++
				retries++
				continue
			}
			edge := &r.parent.child[nmDir(key, r.parent.key)]
			if edge.CompareAndSwap(t.src, r.leafEdge, edgeVal{n: r.leaf, flag: true}) {
				injected = true
				leaf = r.leaf
				r.leafEdge = edgeVal{n: r.leaf, flag: true}
				if t.cleanup(key, r) {
					t.truncate(th, r.ancestor, key)
					t.noteUpdate(th, retries, helps)
					return true
				}
			}
			retries++
			continue
		}
		if r.leaf != leaf {
			t.noteUpdate(th, retries, helps)
			return true // a helper finished the removal
		}
		if t.cleanup(key, r) {
			t.truncate(th, r.ancestor, key)
			t.noteUpdate(th, retries, helps)
			return true
		}
		retries++
	}
}

// cleanup finishes the delete described by the seek record: tag the
// sibling edge of the flagged side, then swing ancestor→successor to
// the sibling (carrying the sibling edge's flag, so a delete pending on
// the sibling leaf survives the move). Returns false when the tree moved
// underneath and the caller must re-seek.
func (t *NMTree) cleanup(key uint64, r seekRec) bool {
	parent := r.parent
	dSide := nmDir(key, parent.key)
	de := parent.child[dSide].Read(t.src)
	sSide := 1 - dSide
	if !de.flag {
		// The flag sits on the other side: we are helping a delete
		// whose key routes opposite to ours through this parent.
		se := parent.child[sSide].Read(t.src)
		if !se.flag {
			return false // nothing to clean here anymore
		}
		dSide, sSide = sSide, dSide
	}
	// Freeze the sibling edge.
	sEdge := &parent.child[sSide]
	se := sEdge.Read(t.src)
	if !se.tag {
		if !sEdge.CompareAndSwap(t.src, se, edgeVal{n: se.n, flag: se.flag, tag: true}) {
			se = sEdge.Read(t.src)
			if !se.tag {
				return false // sibling changed (e.g. an insert landed); re-seek
			}
		} else {
			se = edgeVal{n: se.n, flag: se.flag, tag: true}
		}
	}
	// Swing the ancestor past the removed chunk; this is the delete's
	// linearization point for readers and snapshots.
	aEdge := &r.ancestor.child[nmDir(key, r.ancestor.key)]
	return aEdge.CompareAndSwap(t.src,
		edgeVal{n: r.successor},
		edgeVal{n: se.n, flag: se.flag})
}

// truncate trims the chain of the edge toward key at n, which a completed
// update just extended.
func (t *NMTree) truncate(th *core.Thread, n *nmNode, key uint64) {
	edge := &n.child[nmDir(key, n.key)]
	if d := edge.Truncate(core.PruneBoundOf(th, t.rb, t.src)); d > 0 && t.gc != nil {
		t.gc.VcasVersionsPruned.Add(uint64(d))
	}
}

// RangeQuery appends every pair with lo <= key <= hi as of one
// linearizable snapshot, traversing edge versions and ignoring marks.
func (t *NMTree) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s, which the caller
// announced on th (DESIGN.md, "Snapshot reads").
func (t *NMTree) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	if hi > MaxNMKey {
		hi = MaxNMKey
	}
	tr := t.tr
	var mark uint64
	if tr != nil {
		mark = tr.Now()
	}
	var walk uint64
	out = t.collect(t.r, lo, hi, s, out, &walk)
	if tr != nil {
		tr.Span(th.ID, trace.PhaseTraverse, mark)
		tr.Count(th.ID, trace.PhaseVersionWalk, walk)
	}
	return out
}

func (t *NMTree) collect(n *nmNode, lo, hi uint64, s core.TS, out []core.KV, walk *uint64) []core.KV {
	if n == nil {
		return out
	}
	if n.leaf {
		if n.key >= lo && n.key <= hi {
			out = append(out, core.KV{Key: n.key, Val: n.val})
		}
		return out
	}
	if lo < n.key {
		if e, ok, hops := n.child[0].ReadVersionWalk(t.src, s); ok {
			*walk += uint64(hops)
			out = t.collect(e.n, lo, hi, s, out, walk)
		}
	}
	if hi >= n.key {
		if e, ok, hops := n.child[1].ReadVersionWalk(t.src, s); ok {
			*walk += uint64(hops)
			out = t.collect(e.n, lo, hi, s, out, walk)
		}
	}
	return out
}

// Len counts present keys; quiescent use only (tests).
func (t *NMTree) Len() int {
	n := 0
	var walk func(*nmNode)
	walk = func(x *nmNode) {
		if x == nil {
			return
		}
		if x.leaf {
			if x.key <= MaxNMKey {
				n++
			}
			return
		}
		walk(x.child[0].Read(t.src).n)
		walk(x.child[1].Read(t.src).n)
	}
	walk(t.r)
	return n
}

// Drain is a no-op: the tree holds no limbo memory for range queries.
func (t *NMTree) Drain() {}
