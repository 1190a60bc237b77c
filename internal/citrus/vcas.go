package citrus

import (
	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
	"tscds/internal/vcas"
)

// vlinks are child pointers that are vCAS objects.
type vlinks struct {
	child [2]vcas.Object[*node[vlinks]]
}

// VcasTree is the Citrus tree augmented with vCAS range queries.
type VcasTree = tree[vlinks, *vcasTechnique]

// vcasTechnique is vCAS (Wei et al.) as this tree's edges: every read of
// an edge labels its head version first, so a traversal that can see a
// write has stamped it — the second half of DESIGN §6's rule.
type vcasTechnique struct {
	inEdges[vlinks]
	src core.Source
	gc  *obs.GC
	tr  *trace.Recorder
	rb  *core.ReadBound
}

// NewVcas builds an empty tree over the given source and registry.
func NewVcas(src core.Source, reg *core.Registry) *VcasTree {
	return newTree(src, reg, &vcasTechnique{src: src}, core.QueryAdvances)
}

// setHooks: published memory stays reachable to snapshot readers through
// the edges' history, so nothing is ever recycled and nodes and versions
// come from the GC.
func (p *vcasTechnique) setHooks(h core.Hooks, _ *core.Registry) *pool.Pool[node[vlinks]] {
	p.gc, p.tr, p.rb = h.GC, h.Trace, h.ReadBound
	return nil
}

// load is Object.Read with the label check pulled in front of the call:
// Read is too big to inline, and a search pays for load once per edge
// already. A labeled head is returned as it is; a pending one goes to
// Read, which labels it first.
func (p *vcasTechnique) load(n *node[vlinks], dir int) *node[vlinks] {
	o := &n.l.child[dir]
	if h := o.Head(); h.TS() != core.Pending {
		return h.Value()
	}
	return o.Read(p.src)
}

func (p *vcasTechnique) seed(l *vlinks, left, right *node[vlinks]) {
	l.child[0].Init(left)
	l.child[1].Init(right)
}

// publish installs a pending version and labels it (a reader may get
// there first), then trims the chain it just extended.
func (p *vcasTechnique) publish(th *core.Thread, n *node[vlinks], dir int, target *node[vlinks]) {
	n.l.child[dir].Write(p.src, target)
	if d := n.l.child[dir].Truncate(core.PruneBoundOf(th, p.rb, p.src)); d > 0 && p.gc != nil {
		p.gc.VcasVersionsPruned.Add(uint64(d))
	}
}

func (p *vcasTechnique) collect(th *core.Thread, root *node[vlinks], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV {
	var walk uint64
	out = collectAt(root, lo, hi, len(out), out, func(n *node[vlinks], dir int) *node[vlinks] {
		c, _, hops := n.l.child[dir].ReadVersionWalk(p.src, s)
		walk += uint64(hops)
		return c
	})
	p.tr.Span(th.ID, trace.PhaseTraverse, mark)
	p.tr.Count(th.ID, trace.PhaseVersionWalk, walk)
	return out
}
