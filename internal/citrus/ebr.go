package citrus

import (
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
)

// elinks are plain child pointers beside the node's EBR-RQ insertion and
// deletion labels.
type elinks struct {
	child        [2]atomic.Pointer[node[elinks]]
	itime, dtime ebrrq.Label
}

// EBRTree is the Citrus tree augmented with EBR-RQ (Figure 4).
type EBRTree = tree[elinks, *ebrTechnique]

// ebrTechnique is EBR-RQ (Arbel-Raviv & Brown) as this tree's edges and
// labels. Every label assignment goes through the ebrrq.Provider: in the
// lock-based variant updates share-lock the global readers-writer lock
// around (read timestamp, write label) while range queries take it
// exclusively — the coarse-grained labeling that, per §IV, caps what TSC
// can deliver. The edges keep no history, so a deleted node is retired to
// the EBR limbo lists before it is unlinked and a range query finds a
// node deleted after its bound in the tree or in limbo. Citrus retires
// each node exactly once (marked flips under the node's lock before the
// only retire it will ever see), so every pruned node is recycled.
type ebrTechnique struct {
	*ebrrq.Technique[node[elinks]]
}

// NewEBR builds an empty tree. variant selects lock-based or lock-free
// labeling; the lock-free variant requires an addressable (logical)
// source and otherwise returns ebrrq.ErrRequiresAddress — the paper's
// "TSC cannot be used at all here" case.
func NewEBR(src core.Source, reg *core.Registry, variant ebrrq.Variant) (*EBRTree, error) {
	tq, err := ebrrq.NewTechnique(src, reg, variant, func(n *node[elinks]) (uint64, uint64, *ebrrq.Label, *ebrrq.Label) {
		return n.key, n.val, &n.l.itime, &n.l.dtime
	})
	if err != nil {
		return nil, err
	}
	return newTree(src, reg, &ebrTechnique{tq}, core.QueryAdvancesLocked(tq.Provider)), nil
}

func (p *ebrTechnique) load(n *node[elinks], dir int) *node[elinks] {
	return n.l.child[dir].Load()
}

// present: the raw edges reach a node between publish's store and its
// insertion label, and between retire's deletion label and the unlinking
// publish. A point read helps the insertion label — the node may be a
// relocated successor's copy, whose key never left — and answers absent on
// a deletion label, as a range query bounded after it does. A node is
// retired only under its parent's lock, which its inserter held until the
// label was written, so a deletion label implies an insertion label.
func (p *ebrTechnique) present(n *node[elinks]) (uint64, bool) {
	p.Label(&n.l.itime)
	return n.val, n.l.dtime.Get() == core.Pending
}

// seed resets the labels too: stale ones in a recycled node would corrupt
// snapshot visibility.
func (p *ebrTechnique) seed(l *elinks, left, right *node[elinks]) {
	l.child[0].Store(left)
	l.child[1].Store(right)
	l.itime.Init()
	l.dtime.Init()
}

// publish stores the link and stamps the node it made reachable: (read
// timestamp, write label) is atomic under the provider, the insert's
// linearization. A traversal may see target before its label and reads it
// as not yet inserted, but follows its edges all the same, so a key hung
// behind it is not lost (DESIGN §6's rule does not bind a technique that
// never skips an edge). Only a node this operation created is unlabeled
// here — whoever linked an older one held its parent's lock, which the
// caller holds now, until the label was written — and Label returns at
// once on a labeled node.
func (p *ebrTechnique) publish(_ *core.Thread, n *node[elinks], dir int, target *node[elinks]) {
	n.l.child[dir].Store(target)
	if target != nil {
		p.Label(&target.l.itime)
	}
}

// retire labels n's deletion — the delete's linearization — and puts it
// in limbo, both before the caller unlinks it.
func (p *ebrTechnique) retire(th *core.Thread, n *node[elinks]) {
	p.Label(&n.l.dtime)
	p.Retire(th.ID, n)
}

// collect offers the tree, then the limbo lists, to one ebrrq.Collector:
// nodes inserted at or before the bound and not deleted at or before it.
func (p *ebrTechnique) collect(th *core.Thread, root *node[elinks], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV {
	c := ebrrq.NewCollector(out, lo, hi, s)
	collectLive(root.l.child[0].Load(), &c, lo, hi)
	return p.Finish(th.ID, &c, mark)
}

// collectLive offers the subtree under n to c in key order, descending
// only into children that can hold keys of [lo, hi]. The right subtree
// can hold n's own key: while a two-children delete is between linking
// the successor's copy and unlinking the original, the original is the
// leftmost node under the copy's right child — and it is the one a
// snapshot taken before the copy was labeled must find, not yet being
// in limbo. Hence hi >= n.key, not >.
func collectLive(n *node[elinks], c *ebrrq.Collector, lo, hi uint64) {
	if n == nil {
		return
	}
	if lo < n.key {
		collectLive(n.l.child[0].Load(), c, lo, hi)
	}
	c.Add(n.key, n.val, &n.l.itime, &n.l.dtime)
	if hi >= n.key {
		collectLive(n.l.child[1].Load(), c, lo, hi)
	}
}
