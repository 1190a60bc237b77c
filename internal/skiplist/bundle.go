package skiplist

import (
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/history"
	"tscds/internal/obs/trace"
)

// blinks is the bundled node's part, laid out by who reads it (the node is
// one 144-byte allocation, DESIGN §7): after the key and tower a search
// reads the deletion label and in, the bundle entry the node's insert
// pushed on its predecessor's bundle. That entry leads to this node, so a
// snapshot walk that follows it is already on the line it reads next: the
// value, the node's own bundle and its first entry out. The raw level-0
// link is the tower's.
//
// Linearization protocol: in's label is the node's insertion timestamp
// (Pending -> t), beside it dts goes 0 -> Pending -> t (alive, delete
// claimed, delete linearized). Elemental reads treat a Pending label as
// "not linearized yet", and the label a range query finds on the edge to a
// node is the one word a contains reads, so the two are mutually
// linearizable.
type blinks struct {
	dts atomic.Uint64
	in  history.Entry[*node[blinks]] // on the predecessor's bundle; its label is the insertion timestamp
	val uint64
	bnd history.Chain[*node[blinks]]
	out history.Entry[*node[blinks]] // first entry of bnd
}

// List is the list with bundled level-0 links: the skip list of Figure 5
// (New) or the lazy list (NewLazyBundle).
type List = list[blinks, *bundleTechnique]

// bundleTechnique is Bundling (Nelson et al.) as this list's level-0 links.
type bundleTechnique struct {
	history.Technique[node[blinks]]
}

// New creates an empty bundled skip list over the given source and
// registry, wired to the sinks of h (at most one; none wires nothing).
func New(src core.Source, reg *core.Registry, h ...core.Hooks) *List {
	return newBundle(src, reg, maxLevel, core.HooksOf(h))
}

// NewLazyBundle creates an empty bundled lazy list wired to h.
func NewLazyBundle(src core.Source, reg *core.Registry, h ...core.Hooks) *List {
	return newBundle(src, reg, 1, core.HooksOf(h))
}

func newBundle(src core.Source, reg *core.Registry, levels int, h core.Hooks) *List {
	p := &bundleTechnique{history.NewTechnique[node[blinks]](src, reg, history.Bundling, h)}
	t := newList(src, reg, p, levels, core.QueryReads, h)
	t.head.l.bnd.InitWith(&t.head.l.out, nil) // the head is in every snapshot
	return t
}

func (p *bundleTechnique) load(n *node[blinks]) *node[blinks] { return n.next.at(0).Load() }

func (p *bundleTechnique) alive(n *node[blinks]) bool { return n.l.dts.Load() == 0 }

// present: a pending insertion label is not yet in, a claimed but
// unassigned deletion label still is.
func (p *bundleTechnique) present(n *node[blinks]) (uint64, bool) {
	return n.l.val, visibleAt(n, core.MaxTS)
}

func (p *bundleTechnique) seed(n *node[blinks], val uint64, succ *node[blinks]) {
	n.l.val = val
	n.next.at(0).Store(succ)
}

// link orders the insert the way Nelson et al. do: prepare, read the
// timestamp, store the raw link, finalize in and out with it. The timestamp
// is read before the node is reachable (DESIGN §6): an update that hangs a
// key behind n must take a later one.
func (p *bundleTechnique) link(th *core.Thread, pred, n *node[blinks]) {
	lb := p.Tr.Now(th.ID)
	n.l.bnd.InitPendingWith(&n.l.out, n.next.at(0).Load())
	pred.l.bnd.PrepareWith(&n.l.in, n)
	ts := p.Src.Advance()
	pred.next.at(0).Store(n)
	pred.l.bnd.Finalize(&n.l.in, ts) // the node's label and the edge's: one word
	n.l.bnd.Finalize(&n.l.out, ts)
	p.Tr.Span(th.ID, trace.PhaseLabel, lb)
	p.Trim(th, &pred.l.bnd)
}

func (p *bundleTechnique) shape(n *node[blinks]) error { return p.Cut(&n.l.bnd) }

func (p *bundleTechnique) claim(_ *core.Thread, victim *node[blinks]) {
	victim.l.dts.Store(core.Pending) // not yet linearized
}

func (p *bundleTechnique) unlink(th *core.Thread, pred, victim *node[blinks]) {
	lb := p.Tr.Now(th.ID)
	succ := victim.next.at(0).Load()
	e := pred.l.bnd.Prepare(succ)
	ts := p.Src.Advance()
	victim.l.dts.Store(ts) // linearization of the delete
	pred.l.bnd.Finalize(e, ts)
	p.Tr.Span(th.ID, trace.PhaseLabel, lb)
	pred.next.at(0).Store(succ)
	// The victim's bundle is final (no insert validates against a dead
	// pred): cut it too, or the victim keeps what its entries lead to.
	p.Trim(th, &pred.l.bnd, &victim.l.bnd)
}

// visibleAt reports membership of n in the snapshot at bound s under the
// in.ts/dts protocol.
func visibleAt(n *node[blinks], s core.TS) bool {
	it := n.l.in.TS()
	if it == core.Pending || it > s {
		return false
	}
	d := n.l.dts.Load()
	return d == 0 || d == core.Pending || d > s
}

// collect verifies that the index's landing point was part of the
// snapshot — if not (inserted or deleted around s) it falls back to the
// head, which is in every snapshot — and follows level-0 bundles from it.
func (p *bundleTechnique) collect(th *core.Thread, head, pred *node[blinks], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV {
	if pred != head && !visibleAt(pred, s) {
		pred = head
	}
	cur, ok, d, sp := pred.l.bnd.WaitAt(s)
	derefs, spins := uint64(d), uint64(sp)
	for ok && cur != nil && cur.key <= hi {
		if cur.key >= lo {
			out = append(out, core.KV{Key: cur.key, Val: cur.l.val})
		}
		cur, ok, d, sp = cur.l.bnd.WaitAt(s)
		derefs += uint64(d)
		spins += uint64(sp)
	}
	p.Tr.Span(th.ID, trace.PhaseTraverse, mark)
	p.Tr.Count(th.ID, trace.PhaseBundleDeref, derefs)
	p.Tr.Count(th.ID, trace.PhasePendingWait, spins)
	return out
}
