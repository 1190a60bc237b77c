package skiplist

import (
	"tscds/internal/core"
	"tscds/internal/ebrrq"
)

// elinks is the EBR-RQ node's part: insertion and deletion labels assigned
// through the EBR-RQ provider. The level-0 link is the tower's, plain.
type elinks struct {
	itime, dtime ebrrq.Label
	val          uint64
}

// EBRList is the skip list with EBR-RQ range queries.
type EBRList = list[elinks, *ebrTechnique]

// ebrTechnique is EBR-RQ (Arbel-Raviv & Brown) as this list's labels. The
// links keep no history, so a deleted node is retired to limbo before it is
// unlinked: a range query finds it in the list or in limbo. Every
// traversal is pinned, so the prune margin proves unreachability and every
// pruned node is recycled.
type ebrTechnique struct {
	*ebrrq.Technique[node[elinks]]
}

// NewEBR creates an empty EBR-RQ skip list; the LockFree variant
// requires an addressable (logical) source.
func NewEBR(src core.Source, reg *core.Registry, variant ebrrq.Variant) (*EBRList, error) {
	tq, err := ebrrq.NewTechnique(src, reg, variant, func(n *node[elinks]) (uint64, uint64, *ebrrq.Label, *ebrrq.Label) {
		return n.key, n.l.val, &n.l.itime, &n.l.dtime
	})
	if err != nil {
		return nil, err
	}
	return newList(src, reg, &ebrTechnique{tq}, maxLevel, core.QueryAdvancesLocked(tq.Provider)), nil
}

func (p *ebrTechnique) load(n *node[elinks]) *node[elinks] { return n.next.at(0).Load() }

func (p *ebrTechnique) alive(n *node[elinks]) bool { return n.l.dtime.Get() == core.Pending }

// present helps a pending insertion label in and answers absent on an
// assigned deletion label, as a range query bounded after it does. A
// delete waits for fullyLinked, which follows the insertion label, so a
// deletion label implies one.
func (p *ebrTechnique) present(n *node[elinks]) (uint64, bool) {
	p.Label(&n.l.itime)
	return n.l.val, p.alive(n)
}

// seed resets the labels too: stale ones in a recycled node would make it
// spuriously visible or invisible to snapshots.
func (p *ebrTechnique) seed(n *node[elinks], val uint64, succ *node[elinks]) {
	n.l.val = val
	n.next.at(0).Store(succ)
	n.l.itime.Init()
	n.l.dtime.Init()
}

// link stores, then labels: (read timestamp, write label) is atomic under
// the provider, the insert's linearization.
func (p *ebrTechnique) link(_ *core.Thread, pred, n *node[elinks]) {
	pred.next.at(0).Store(n)
	p.Label(&n.l.itime)
}

// claim makes the victim scannable before it is unreachable, then
// linearizes the delete.
func (p *ebrTechnique) claim(th *core.Thread, victim *node[elinks]) {
	p.Retire(th.ID, victim)
	p.Label(&victim.l.dtime)
}

func (p *ebrTechnique) unlink(_ *core.Thread, pred, victim *node[elinks]) {
	pred.next.at(0).Store(victim.next.at(0).Load())
}

// collect offers the live level 0 from pred, then the limbo lists, to one
// ebrrq.Collector: nodes inserted at or before the bound and not deleted
// at or before it.
func (p *ebrTechnique) collect(th *core.Thread, _, pred *node[elinks], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV {
	c := ebrrq.NewCollector(out, lo, hi, s)
	for cur := pred.next.at(0).Load(); cur != nil && cur.key <= hi; cur = cur.next.at(0).Load() {
		c.Add(cur.key, cur.l.val, &cur.l.itime, &cur.l.dtime)
	}
	return p.Finish(th.ID, &c, mark)
}
