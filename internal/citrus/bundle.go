package citrus

import (
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/history"
	"tscds/internal/obs/trace"
)

// blinks are child links that each carry a bundle: the raw pointer serves
// searches and updates, the bundle serves snapshot traversals. Both
// change together under the node's lock.
type blinks struct {
	child [2]atomic.Pointer[node[blinks]]
	bnd   [2]history.Chain[*node[blinks]]
}

// BundleTree is the Citrus tree augmented with bundled references.
type BundleTree = tree[blinks, *bundleTechnique]

// bundleTechnique is Bundling (Nelson et al.) as this tree's edges. An
// unlinked node stays reachable through the bundle of the edge that
// pointed at it, so there is nothing to retire, and a node the raw edges
// reach is present.
type bundleTechnique struct {
	history.Technique[node[blinks]]
}

// NewBundle builds an empty tree over the given source and registry,
// wired to the sinks of h (at most one; none wires nothing).
func NewBundle(src core.Source, reg *core.Registry, h ...core.Hooks) *BundleTree {
	hk := core.HooksOf(h)
	p := &bundleTechnique{history.NewTechnique[node[blinks]](src, reg, history.Bundling, hk)}
	return newTree(src, reg, p, core.QueryReads, hk)
}

func (*bundleTechnique) present(n *node[blinks]) (uint64, bool) { return n.val, true }
func (*bundleTechnique) retire(*core.Thread, *node[blinks])     {}

func (p *bundleTechnique) shape(n *node[blinks]) error {
	return p.Cut(&n.l.bnd[0], &n.l.bnd[1])
}

func (p *bundleTechnique) load(n *node[blinks], dir int) *node[blinks] {
	return n.l.child[dir].Load()
}

func (p *bundleTechnique) seed(l *blinks, left, right *node[blinks]) {
	l.child[0].Store(left)
	l.child[1].Store(right)
	l.bnd[0].Init(left)
	l.bnd[1].Init(right)
}

// publish orders an update the way Nelson et al. do: prepare a pending
// entry, read the timestamp, store the raw link, finalize. Searches
// follow the raw link, so the store comes after the timestamp — a second
// update that hangs a key behind target reads a later one, and a range
// query that waited on this entry and found it newer than its bound skips
// nothing older (DESIGN §6's rule, first half, by instruction order). The
// Advance is the fetch-and-add each update pays on a logical source and a
// core-local read with TSC: Figure 3's Bundle vs Bundle-RDTSCP series.
// The bundle just extended is trimmed to what active range queries read.
func (p *bundleTechnique) publish(th *core.Thread, n *node[blinks], dir int, target *node[blinks]) {
	// Prepare..Finalize is bundling's labeling phase: the span readers
	// can block on (pending-entry spins).
	mark := p.Tr.Now(th.ID)
	b := &n.l.bnd[dir]
	e := b.Prepare(target)
	ts := p.Src.Advance()
	n.l.child[dir].Store(target)
	b.Finalize(e, ts)
	p.Tr.Span(th.ID, trace.PhaseLabel, mark)
	p.Trim(th, b)
}

func (p *bundleTechnique) collect(th *core.Thread, root *node[blinks], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV {
	var derefs, waits uint64
	out = collectAt(root, lo, hi, len(out), out, func(n *node[blinks], dir int) *node[blinks] {
		c, _, depth, spins := n.l.bnd[dir].WaitAt(s)
		derefs += uint64(depth)
		waits += uint64(spins)
		return c
	})
	p.Tr.Span(th.ID, trace.PhaseTraverse, mark)
	p.Tr.Count(th.ID, trace.PhaseBundleDeref, derefs)
	p.Tr.Count(th.ID, trace.PhasePendingWait, waits)
	return out
}
