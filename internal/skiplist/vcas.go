package skiplist

import (
	"tscds/internal/core"
	"tscds/internal/history"
	"tscds/internal/obs/trace"
)

// vlinks is the vCAS node's part: the level-0 link and a liveness flag,
// both versioned. dead starts true (labeled 0), is written false before the
// node is linked — so membership at snapshot bound s is exactly: reachable
// at s and not dead at s, also for a node the raw index lands on — and is
// written true again to linearize the delete.
type vlinks struct {
	next0 history.Chain[*node[vlinks]]
	dead  history.Chain[bool]
	val   uint64
}

// VcasList is the list with vCAS range queries: the skip list (NewVcas) or
// the lazy list (NewLazyVcas).
type VcasList = list[vlinks, *vcasTechnique]

// vcasTechnique is vCAS (Wei et al.) as this list's level-0 link and
// liveness flag: every read labels the head version first, so a traversal
// that can see a write has stamped it — the second half of DESIGN §6's rule.
type vcasTechnique struct {
	history.Technique[node[vlinks]]
}

// NewVcas creates an empty vCAS skip list wired to the sinks of h (at most
// one; none wires nothing).
func NewVcas(src core.Source, reg *core.Registry, h ...core.Hooks) *VcasList {
	return newVcas(src, reg, maxLevel, core.HooksOf(h))
}

// NewLazyVcas creates an empty vCAS lazy list wired to h.
func NewLazyVcas(src core.Source, reg *core.Registry, h ...core.Hooks) *VcasList {
	return newVcas(src, reg, 1, core.HooksOf(h))
}

func newVcas(src core.Source, reg *core.Registry, levels int, h core.Hooks) *VcasList {
	p := &vcasTechnique{history.NewTechnique[node[vlinks]](src, reg, history.VCAS, h)}
	t := newList(src, reg, p, levels, core.QueryAdvances, h)
	t.head.l.dead.Init(false) // the head is in every snapshot
	return t
}

// load is Chain.Read with the label check pulled in front of the call
// (Read does not inline): a labeled head is returned as it is, a pending
// one goes to Read, which labels it first.
func (p *vcasTechnique) load(n *node[vlinks]) *node[vlinks] {
	o := &n.l.next0
	if h := o.Head(); h.TS() != core.Pending {
		return h.Value()
	}
	return o.Read(p.Src)
}

func (p *vcasTechnique) alive(n *node[vlinks]) bool { return !n.l.dead.Read(p.Src) }

func (p *vcasTechnique) present(n *node[vlinks]) (uint64, bool) {
	return n.l.val, !n.l.dead.Read(p.Src)
}

func (p *vcasTechnique) seed(n *node[vlinks], val uint64, succ *node[vlinks]) {
	n.l.val = val
	n.l.dead.Init(true) // not yet in any snapshot
	n.l.next0.Init(succ)
}

// link writes liveness first, then reachability: a snapshot that can reach
// the node always sees it alive at that bound.
func (p *vcasTechnique) link(th *core.Thread, pred, n *node[vlinks]) {
	n.l.dead.Write(p.Src, false)
	pred.l.next0.Write(p.Src, n)
	p.Trim(th, &pred.l.next0)
}

func (p *vcasTechnique) shape(n *node[vlinks]) error { return p.Cut(&n.l.next0) }

func (p *vcasTechnique) claim(_ *core.Thread, victim *node[vlinks]) {
	victim.l.dead.Write(p.Src, true) // linearization of the delete
}

func (p *vcasTechnique) unlink(th *core.Thread, pred, victim *node[vlinks]) {
	pred.l.next0.Write(p.Src, victim.l.next0.Read(p.Src))
	p.Trim(th, &pred.l.next0)
}

// collect falls back to the head when the index landed on a node dead at
// s, then walks level 0 as of s, keeping the nodes alive at s.
func (p *vcasTechnique) collect(th *core.Thread, head, pred *node[vlinks], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV {
	var walk uint64
	if pred != head {
		d, ok, h := pred.l.dead.ReadAt(p.Src, s)
		walk += uint64(h)
		if !ok || d {
			pred = head
		}
	}
	cur, _, h := pred.l.next0.ReadAt(p.Src, s)
	walk += uint64(h)
	for cur != nil && cur.key <= hi {
		if cur.key >= lo {
			d, ok, h := cur.l.dead.ReadAt(p.Src, s)
			walk += uint64(h)
			if ok && !d {
				out = append(out, core.KV{Key: cur.key, Val: cur.l.val})
			}
		}
		cur, _, h = cur.l.next0.ReadAt(p.Src, s)
		walk += uint64(h)
	}
	p.Tr.Span(th.ID, trace.PhaseTraverse, mark)
	p.Tr.Count(th.ID, trace.PhaseVersionWalk, walk)
	return out
}
