package skiplist

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/epoch"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
)

// This file implements the skip list + EBR-RQ combination the paper
// built but omitted (no TSC gains observed; see vcas.go for the quote).
// Nodes carry insertion/deletion labels assigned through the EBR-RQ
// provider; deleted nodes are retired to the epoch manager's limbo lists
// before being unlinked so range queries never lose them.

type eskipNode struct {
	key, val uint64
	sync.Mutex
	topLevel     int
	itime, dtime ebrrq.Label
	linked       atomic.Bool
	next         tower[eskipNode]
}

func newEskipNode(key, val uint64, topLevel int) *eskipNode {
	n := &eskipNode{key: key, val: val, topLevel: topLevel}
	n.itime.Init()
	n.dtime.Init()
	n.next.reset(topLevel)
	return n
}

// EBRList is the skip list with EBR-RQ range queries.
type EBRList struct {
	src      core.Source
	provider *ebrrq.Provider
	reg      *core.Registry
	em       *epoch.Manager[*eskipNode]
	tr       *trace.Recorder
	np       *pool.Pool[eskipNode] // nil in GC mode
	rd       *core.Reader
	head     *eskipNode
	rngs     []core.PaddedUint64
}

// NewEBR creates an empty EBR-RQ skip list; the LockFree variant
// requires an addressable (logical) source.
func NewEBR(src core.Source, reg *core.Registry, variant ebrrq.Variant) (*EBRList, error) {
	var provider *ebrrq.Provider
	if variant == ebrrq.LockFree {
		p, err := ebrrq.NewLockFree(src)
		if err != nil {
			return nil, err
		}
		provider = p
	} else {
		provider = ebrrq.NewLockBased(src)
	}
	head := newEskipNode(0, 0, maxLevel)
	head.linked.Store(true)
	t := &EBRList{
		src:      src,
		provider: provider,
		reg:      reg,
		head:     head,
		rngs:     make([]core.PaddedUint64, reg.Cap()),
	}
	t.em = epoch.NewManager[*eskipNode](reg,
		func(n *eskipNode, min core.TS) bool { return n.dtime.Get() >= min })
	t.rd = core.NewReader(src, core.QueryAdvancesLocked(provider), t)
	return t, nil
}

// Source returns the list's timestamp source.
func (t *EBRList) Source() core.Source { return t.src }

// Reader returns the list's snapshot-read protocol.
func (t *EBRList) Reader() *core.Reader { return t.rd }

// SetHooks wires the list's sinks: limbo-list counters, the flight
// recorder — through the list, its labeling provider (lock-wait and label
// spans) and its epoch manager (pin/advance stalls) — and the allocation
// mode. This being an EBR structure, where every traversal is pinned and
// the epoch prune margin therefore proves unreachability, pooling closes
// the loop: pruned limbo nodes are recycled into the pool's free lists
// instead of dropped for the GC. The retention watermark is not used:
// limbo holds deleted nodes, not history. Call before the list sees
// traffic.
func (t *EBRList) SetHooks(h core.Hooks) {
	t.tr = h.Trace
	t.rd.SetHooks(h)
	t.provider.SetTrace(h.Trace)
	t.em.SetTrace(h.Trace)
	t.em.SetGC(h.GC)
	t.np = pool.New[eskipNode](t.reg.Cap(), h.Alloc, h.PoolStats)
	if t.np != nil {
		t.em.SetRecycle(func(n *eskipNode, tid int) { t.np.Put(tid, n) })
	}
}

// newNode acquires and fully re-initializes a node. Recycled memory
// carries stale state, and two resets are load-bearing: linked=false
// (Delete refuses to label a node whose insert has not fully linked —
// a recycled true would let a deleter label dtime before itime) and
// the label Inits (stale labels would make the node spuriously visible
// or invisible to snapshots). A pooled node owns the tower's overflow
// array whatever its height, so a short node recycled into a tall one
// allocates nothing.
func (t *EBRList) newNode(tid int, key, val uint64, topLevel int) *eskipNode {
	if t.np == nil {
		return newEskipNode(key, val, topLevel)
	}
	n := t.np.Get(tid)
	n.key, n.val = key, val
	n.topLevel = topLevel
	n.itime.Init()
	n.dtime.Init()
	n.linked.Store(false)
	n.next.reset(maxLevel)
	return n
}

// LimboLen reports retained limbo nodes (tests).
func (t *EBRList) LimboLen() int { return t.em.LimboLen() }

// Drain eagerly advances the epoch and prunes every limbo list.
// Quiescent use only, like Len.
func (t *EBRList) Drain() { t.em.DrainAll() }

func (t *EBRList) find(key uint64, preds, succs *[maxLevel]*eskipNode) int {
	lFound := -1
	pred := t.head
	for l := maxLevel - 1; l >= 0; l-- {
		cur := pred.next.at(l).Load()
		for cur != nil && cur.key < key {
			pred = cur
			cur = cur.next.at(l).Load()
		}
		if lFound == -1 && cur != nil && cur.key == key {
			lFound = l
		}
		preds[l] = pred
		succs[l] = cur
	}
	return lFound
}

// lookup returns the node holding key, labeled or not, or nil; it stops at
// the level it meets the key on. The caller is pinned.
func (t *EBRList) lookup(key uint64) *eskipNode {
	pred := t.head
	for l := maxLevel - 1; l >= 0; l-- {
		cur := pred.next.at(l).Load()
		for cur != nil && cur.key < key {
			pred = cur
			cur = cur.next.at(l).Load()
		}
		if cur != nil && cur.key == key {
			return cur
		}
	}
	return nil
}

// Contains reports whether key is present (insert linearized, delete
// not).
func (t *EBRList) Contains(th *core.Thread, key uint64) bool {
	_, ok := t.Get(th, key)
	return ok
}

// Get returns the value stored at key.
func (t *EBRList) Get(th *core.Thread, key uint64) (uint64, bool) {
	t.em.Pin(th.ID)
	defer t.em.Unpin(th.ID)
	if n := t.lookup(key); n != nil && n.itime.Get() != core.Pending && n.dtime.Get() == core.Pending {
		return n.val, true
	}
	return 0, false
}

func eAlive(n *eskipNode) bool { return n.dtime.Get() == core.Pending }

// Insert adds key with val; it returns false if already present.
func (t *EBRList) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxKey || key == 0 {
		return false
	}
	t.em.Pin(th.ID)
	defer t.em.Unpin(th.ID)
	topLevel := randLevel(t.rngs, th.ID)
	var preds, succs [maxLevel]*eskipNode
	var retries uint64
	for {
		if lFound := t.find(key, &preds, &succs); lFound != -1 {
			f := succs[lFound]
			if !eAlive(f) {
				retries++
				continue // deleted; unlink imminent
			}
			// Help its insert linearize before failing against it.
			t.provider.Label(&f.itime)
			noteRetries(t.tr, th, retries)
			return false
		}
		var locked [maxLevel]*eskipNode
		nl := lockPreds(&preds, &locked, topLevel)
		valid := true
		for l := 0; l < topLevel; l++ {
			succ := succs[l]
			if (preds[l] != t.head && !eAlive(preds[l])) ||
				preds[l].next.at(l).Load() != succ ||
				(succ != nil && !eAlive(succ)) {
				valid = false
				break
			}
		}
		if !valid {
			unlockPreds(&locked, nl)
			retries++
			continue
		}
		mark := t.tr.Now()
		n := t.newNode(th.ID, key, val, topLevel)
		t.tr.Span(th.ID, trace.PhaseAlloc, mark)
		for l := 0; l < topLevel; l++ {
			n.next.at(l).Store(succs[l])
		}
		preds[0].next.at(0).Store(n)
		t.provider.Label(&n.itime) // linearization
		for l := 1; l < topLevel; l++ {
			preds[l].next.at(l).Store(n)
		}
		n.linked.Store(true)
		unlockPreds(&locked, nl)
		noteRetries(t.tr, th, retries)
		return true
	}
}

// Delete removes key; it returns false if absent.
func (t *EBRList) Delete(th *core.Thread, key uint64) bool {
	t.em.Pin(th.ID)
	defer t.em.Unpin(th.ID)
	var preds, succs [maxLevel]*eskipNode
	var victim *eskipNode
	for {
		lFound := t.find(key, &preds, &succs)
		if lFound == -1 {
			return false
		}
		victim = succs[lFound]
		// As in List.Delete: wait out an insert still linking its tower,
		// search again when the node was found below its top.
		for !victim.linked.Load() {
			runtime.Gosched()
		}
		if victim.topLevel == lFound+1 {
			break
		}
		runtime.Gosched()
	}
	victim.Lock()
	if !eAlive(victim) {
		victim.Unlock()
		return false
	}
	// Scannable before unreachable, then linearize.
	t.em.Retire(th.ID, victim)
	t.provider.Label(&victim.dtime)
	var retries uint64
	for {
		var locked [maxLevel]*eskipNode
		nl := lockPreds(&preds, &locked, victim.topLevel)
		valid := true
		for l := 0; l < victim.topLevel; l++ {
			if (preds[l] != t.head && !eAlive(preds[l])) ||
				preds[l].next.at(l).Load() != victim {
				valid = false
				break
			}
		}
		if valid {
			for l := victim.topLevel - 1; l >= 0; l-- {
				preds[l].next.at(l).Store(victim.next.at(l).Load())
			}
			unlockPreds(&locked, nl)
			victim.Unlock()
			noteRetries(t.tr, th, retries)
			return true
		}
		unlockPreds(&locked, nl)
		retries++
		t.find(key, &preds, &succs)
	}
}

// RangeQuery appends every pair in [lo,hi] as of one linearizable
// snapshot: live-list nodes passing the visibility predicate plus limbo
// nodes deleted after the bound.
func (t *EBRList) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s; the caller holds th's
// reservation and took s under the provider's RQLock (DESIGN.md,
// "Snapshot reads").
func (t *EBRList) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	if lo == 0 {
		lo = 1
	}
	if hi > MaxKey {
		hi = MaxKey
	}
	t.em.Pin(th.ID)
	tr := t.tr
	th.AnnounceRQ(s)

	c := ebrrq.NewCollector(out, lo, hi, s)
	// Current-state walk: position via the index, then sweep level 0.
	mark := tr.Now()
	pred := t.head
	for l := maxLevel - 1; l >= 1; l-- {
		cur := pred.next.at(l).Load()
		for cur != nil && cur.key < lo {
			pred = cur
			cur = cur.next.at(l).Load()
		}
	}
	for cur := pred.next.at(0).Load(); cur != nil && cur.key <= hi; cur = cur.next.at(0).Load() {
		c.Add(cur.key, cur.val, &cur.itime, &cur.dtime)
	}
	tr.Span(th.ID, trace.PhaseTraverse, mark)
	mark = tr.Now()
	t.em.WalkLimbo(func(n *eskipNode) bool {
		return c.AddLimbo(n.key, n.val, &n.itime, &n.dtime)
	})
	tr.Span(th.ID, trace.PhaseLimboScan, mark)

	t.em.Unpin(th.ID)
	th.DoneRQ()
	return c.Finish()
}

// Len counts present keys; quiescent use only.
func (t *EBRList) Len() int {
	n := 0
	for cur := t.head.next.at(0).Load(); cur != nil; cur = cur.next.at(0).Load() {
		if eAlive(cur) {
			n++
		}
	}
	return n
}
