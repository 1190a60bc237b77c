package citrus

import (
	"tscds/internal/core"
	"tscds/internal/history"
	"tscds/internal/obs/trace"
)

// vlinks are child pointers that are vCAS version chains.
type vlinks struct {
	child [2]history.Chain[*node[vlinks]]
}

// VcasTree is the Citrus tree augmented with vCAS range queries.
type VcasTree = tree[vlinks, *vcasTechnique]

// vcasTechnique is vCAS (Wei et al.) as this tree's edges: every read of
// an edge labels its head version first, so a traversal that can see a
// write has stamped it — the second half of DESIGN §6's rule. An unlinked
// node stays reachable through the history of the edge that pointed at
// it, so there is nothing to retire, and a node the edges reach is present.
type vcasTechnique struct {
	history.Technique[node[vlinks]]
}

// NewVcas builds an empty tree over the given source and registry, wired
// to the sinks of h (at most one; none wires nothing).
func NewVcas(src core.Source, reg *core.Registry, h ...core.Hooks) *VcasTree {
	hk := core.HooksOf(h)
	p := &vcasTechnique{history.NewTechnique[node[vlinks]](src, reg, history.VCAS, hk)}
	return newTree(src, reg, p, core.QueryAdvances, hk)
}

func (*vcasTechnique) present(n *node[vlinks]) (uint64, bool) { return n.val, true }
func (*vcasTechnique) retire(*core.Thread, *node[vlinks])     {}

func (p *vcasTechnique) shape(n *node[vlinks]) error {
	return p.Cut(&n.l.child[0], &n.l.child[1])
}

// load is Chain.Read with the label check pulled in front of the call:
// Read is too big to inline, and a search pays for load once per edge
// already. A labeled head is returned as it is; a pending one goes to
// Read, which labels it first.
func (p *vcasTechnique) load(n *node[vlinks], dir int) *node[vlinks] {
	o := &n.l.child[dir]
	if h := o.Head(); h.TS() != core.Pending {
		return h.Value()
	}
	return o.Read(p.Src)
}

func (p *vcasTechnique) seed(l *vlinks, left, right *node[vlinks]) {
	l.child[0].Init(left)
	l.child[1].Init(right)
}

// publish installs a pending version and labels it (a reader may get
// there first), then trims the chain it just extended.
func (p *vcasTechnique) publish(th *core.Thread, n *node[vlinks], dir int, target *node[vlinks]) {
	n.l.child[dir].Write(p.Src, target)
	p.Trim(th, &n.l.child[dir])
}

func (p *vcasTechnique) collect(th *core.Thread, root *node[vlinks], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV {
	var walk uint64
	out = collectAt(root, lo, hi, len(out), out, func(n *node[vlinks], dir int) *node[vlinks] {
		c, _, hops := n.l.child[dir].ReadAt(p.Src, s)
		walk += uint64(hops)
		return c
	})
	p.Tr.Span(th.ID, trace.PhaseTraverse, mark)
	p.Tr.Count(th.ID, trace.PhaseVersionWalk, walk)
	return out
}
