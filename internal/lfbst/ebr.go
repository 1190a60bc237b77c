package lfbst

import (
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
)

// lifetime is one insertion of a key: its EBR-RQ labels, shared by a leaf
// and every copy of it (DESIGN §7, "The replaced-leaf rule").
type lifetime struct {
	itime, dtime ebrrq.Label
}

// elinks are raw child pointers and, on a leaf, its lifetime: own for a new
// leaf, the original's for a copy. refs counts the limbo entries holding
// the leaf — an attempt that retired it can fail and a later delete retire
// it again — so the pool takes it with the last one. replaced is set once a
// copy is made: the copy reads own, and the leaf may leave the tree long
// after its first limbo entry's epoch, so only the GC takes it.
type elinks struct {
	left, right atomic.Pointer[node[elinks]]
	life        *lifetime
	own         lifetime
	refs        atomic.Int32
	replaced    atomic.Bool
}

func (e *elinks) leaf() bool { return e.left.Load() == nil }

// child returns the edge toward key at a node keyed at.
func (e *elinks) child(key, at uint64) *atomic.Pointer[node[elinks]] {
	if key < at {
		return &e.left
	}
	return &e.right
}

// EBRTree is the EFRB tree augmented with EBR-RQ range queries. Lock-free
// labeling uses DCSS against the logical timestamp's address, lock-based a
// global readers-writer lock; per the paper's §IV the first cannot exist
// over TSC and the second gains little from it.
type EBRTree = tree[elinks, *ebrTechnique]

// ebrTechnique is EBR-RQ as this tree's labels, each written through the
// ebrrq.Provider. The edges keep no history, so a deleted leaf is retired
// to the limbo lists before it can be unlinked, and a range query finds a
// leaf deleted after its bound in the tree or in limbo.
type ebrTechnique struct {
	*ebrrq.Technique[node[elinks]]
}

// NewEBR builds an empty tree wired to the sinks of h (at most one); the
// LockFree variant requires an addressable (logical) source and otherwise
// returns ebrrq.ErrRequiresAddress; a registry of more than MaxThreads
// slots is refused too. Pruned limbo leaves are recycled gated
// by refs and replaced. Internal nodes never enter limbo: nothing proves
// when the last helper drops one, so the GC does.
func NewEBR(src core.Source, reg *core.Registry, variant ebrrq.Variant, h ...core.Hooks) (*EBRTree, error) {
	hk := core.HooksOf(h)
	tq, err := ebrrq.NewTechnique(src, reg, variant, func(n *node[elinks]) (uint64, uint64, *ebrrq.Label, *ebrrq.Label) {
		return n.key, n.val, &n.l.life.itime, &n.l.life.dtime
	}, func(n *node[elinks]) bool { return n.l.refs.Add(-1) == 0 && !n.l.replaced.Load() }, hk)
	if err != nil {
		return nil, err
	}
	return newTree(src, reg, &ebrTechnique{tq}, core.QueryAdvancesLocked(tq.Provider), hk)
}

// shape: a leaf the tree reaches, the sentinels aside, is inserted and
// not deleted.
func (*ebrTechnique) shape(n *node[elinks]) error {
	if n.l.leaf() && n.key <= MaxKey {
		return ebrrq.Live(&n.l.life.itime, &n.l.life.dtime)
	}
	return nil
}

// truncate: limbo holds deleted leaves, not history.
func (*ebrTechnique) truncate(*core.Thread, uint64, *node[elinks], *node[elinks]) {}

func (p *ebrTechnique) search(root *node[elinks], key uint64) searchResult[elinks] {
	var r searchResult[elinks]
	r.l = root
	for !r.l.l.leaf() {
		r.gp, r.p = r.p, r.l
		r.gpupdate = r.pupdate
		r.pupdate = r.p.update.Load()
		r.l = r.p.l.child(key, r.p.key).Load()
	}
	return r
}

func (*ebrTechnique) children(n *node[elinks]) (*node[elinks], *node[elinks]) {
	return n.l.left.Load(), n.l.right.Load()
}

// present: the edges reach a leaf between the CAS that links it and its
// insertion label, and between its deletion label and the splice. A point
// read helps the first — the leaf may be a copy whose key never left — and
// answers absent on the second, as a range query bounded after it does.
func (p *ebrTechnique) present(l *node[elinks]) (uint64, bool) {
	lf := l.l.life
	p.Label(-1, &lf.itime)
	return l.val, lf.dtime.Get() == core.Pending
}

// seed gives a new leaf fresh labels and a copy the original's.
func (*ebrTechnique) seed(n, left, right, of *node[elinks]) {
	if left != nil {
		n.l.left.Store(left)
		n.l.right.Store(right)
		return
	}
	if of != nil {
		of.l.replaced.Store(true)
		n.l.life = of.l.life
		return
	}
	n.l.own.itime.Init()
	n.l.own.dtime.Init()
	n.l.life = &n.l.own
}

// publish is the raw CAS. Its inserter labels the new leaf right after
// (Insert's present), or a reader first; a helper does not know the leaf.
func (*ebrTechnique) publish(parent, old, new *node[elinks], _ bool) bool {
	return parent.l.child(new.key, parent.key).CompareAndSwap(old, new)
}

// marked labels the deletion — its linearization — before any helper can
// splice the leaf out, so an unreachable leaf is labeled and in limbo.
func (p *ebrTechnique) marked(tid int, l *node[elinks]) { p.Label(tid, &l.l.life.dtime) }

// retire puts the leaf in limbo before any helper can splice it out; one
// that survives a failed attempt is harmless, as labels decide visibility.
// Delete returns only once what it retired is labeled, through the leaf or
// a copy, so labels never increase down a limbo list, as AddLimbo's early
// exit and epoch's prune need (TestEBRBSTLimboLabeledAtQuiescence).
func (p *ebrTechnique) retire(th *core.Thread, l *node[elinks]) {
	l.l.refs.Add(1)
	p.Retire(th.ID, l)
}

// collect offers the tree, then the limbo lists, to one ebrrq.Collector,
// which keeps one pair of a key met twice (a leaf in limbo, its copy).
func (p *ebrTechnique) collect(th *core.Thread, root *node[elinks], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV {
	c := ebrrq.NewCollector(out, lo, hi, s)
	collectLive(root, &c, lo, hi)
	return p.Finish(th.ID, &c, mark)
}

// collectLive offers the leaves under n to c in key order, descending only
// into children that can hold keys of [lo, hi].
func collectLive(n *node[elinks], c *ebrrq.Collector, lo, hi uint64) {
	if n.l.leaf() {
		lf := n.l.life
		c.Add(n.key, n.val, &lf.itime, &lf.dtime)
		return
	}
	if lo < n.key {
		collectLive(n.l.left.Load(), c, lo, hi)
	}
	if hi >= n.key {
		collectLive(n.l.right.Load(), c, lo, hi)
	}
}
