package skiplist

import (
	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/epoch"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
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
// unlinked: a range query finds it in the list or in limbo.
type ebrTechnique struct {
	provider *ebrrq.Provider
	em       *epoch.Manager[*node[elinks]]
	tr       *trace.Recorder
}

// NewEBR creates an empty EBR-RQ skip list; the LockFree variant
// requires an addressable (logical) source.
func NewEBR(src core.Source, reg *core.Registry, variant ebrrq.Variant) (*EBRList, error) {
	provider := ebrrq.NewLockBased(src)
	if variant == ebrrq.LockFree {
		var err error
		if provider, err = ebrrq.NewLockFree(src); err != nil {
			return nil, err
		}
	}
	p := &ebrTechnique{provider: provider}
	p.em = epoch.NewManager[*node[elinks]](reg,
		func(n *node[elinks], min core.TS) bool { return n.l.dtime.Get() >= min })
	return newList(src, reg, p, maxLevel, core.QueryAdvancesLocked(provider)), nil
}

// setHooks wires limbo-list counters and the flight recorder (through the
// provider and the epoch manager) and builds the node pool (nil in GC
// mode). Every traversal is pinned, so the prune margin proves
// unreachability and pruned limbo nodes are recycled into the pool. Limbo
// holds deleted nodes, not history: no retention watermark.
func (p *ebrTechnique) setHooks(h core.Hooks, reg *core.Registry) *pool.Pool[node[elinks]] {
	p.tr = h.Trace
	p.provider.SetTrace(h.Trace)
	p.em.SetTrace(h.Trace)
	p.em.SetGC(h.GC)
	np := pool.New[node[elinks]](reg.Cap(), h.Alloc, h.PoolStats)
	if np != nil {
		p.em.SetRecycle(func(n *node[elinks], tid int) { np.Put(tid, n) })
	}
	return np
}

func (p *ebrTechnique) enter(tid int) { p.em.Pin(tid) }
func (p *ebrTechnique) exit(tid int)  { p.em.Unpin(tid) }
func (p *ebrTechnique) drain()        { p.em.DrainAll() }

func (p *ebrTechnique) load(n *node[elinks]) *node[elinks] { return n.next.at(0).Load() }

func (p *ebrTechnique) alive(n *node[elinks]) bool { return n.l.dtime.Get() == core.Pending }

// present helps a pending insertion label in and answers absent on an
// assigned deletion label, as a range query bounded after it does. A
// delete waits for fullyLinked, which follows the insertion label, so a
// deletion label implies one.
func (p *ebrTechnique) present(n *node[elinks]) (uint64, bool) {
	p.provider.Label(&n.l.itime)
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
	p.provider.Label(&n.l.itime)
}

// claim makes the victim scannable before it is unreachable, then
// linearizes the delete.
func (p *ebrTechnique) claim(th *core.Thread, victim *node[elinks]) {
	p.em.Retire(th.ID, victim)
	p.provider.Label(&victim.l.dtime)
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
	p.tr.Span(th.ID, trace.PhaseTraverse, mark)
	mark = p.tr.Now()
	p.em.WalkLimbo(func(n *node[elinks]) bool {
		return c.AddLimbo(n.key, n.l.val, &n.l.itime, &n.l.dtime)
	})
	p.tr.Span(th.ID, trace.PhaseLimboScan, mark)
	return c.Finish()
}
