package skiplist

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
	"tscds/internal/vcas"
)

// This file implements the skip list + vCAS combination the paper
// built but omitted from its figures because TSC showed no gains there
// (§III: "We applied vCAS and EBR-RQ to the Skip List structure as
// well, however, since we did not observe performance gains with using
// TSC, we decided to omit them"). BenchmarkOmittedSkipList reproduces
// the non-result.
//
// Only the bottom-level links and a per-node liveness flag are
// versioned; the upper index levels are plain pointers used for
// positioning. A node's versioned "dead" flag starts true (labeled 0),
// is written false before the node is linked (so membership at snapshot
// bound s is exactly: reachable at s and not dead at s), and is written
// true again to linearize the delete.

type vskipNode struct {
	key, val uint64
	sync.Mutex
	topLevel int
	dead     vcas.Object[bool]
	next0    vcas.Object[*vskipNode] // level 0, versioned
	upper    tower[vskipNode]        // levels 1 and up, level l at l-1
	linked   atomic.Bool
}

func newVskipNode(key, val uint64, topLevel int) *vskipNode {
	n := &vskipNode{key: key, val: val, topLevel: topLevel}
	n.dead.Init(true) // not yet in any snapshot
	n.next0.Init(nil)
	n.upper.reset(topLevel - 1)
	return n
}

// nextAt follows the raw link at level l >= 1.
func (n *vskipNode) nextAt(l int) *vskipNode { return n.upper.at(l - 1).Load() }

// VcasList is the skip list with vCAS range queries.
type VcasList struct {
	src  core.Source
	reg  *core.Registry
	gc   *obs.GC
	tr   *trace.Recorder
	np   *pool.Pool[vskipNode]
	vp   *pool.Pool[vcas.Version[*vskipNode]]
	bp   *pool.Pool[vcas.Version[bool]]
	rb   *core.ReadBound
	rd   *core.Reader
	head *vskipNode
	rngs []core.PaddedUint64
}

// NewVcas creates an empty vCAS skip list.
func NewVcas(src core.Source, reg *core.Registry) *VcasList {
	head := newVskipNode(0, 0, maxLevel)
	head.dead.Init(false) // head is in every snapshot
	head.linked.Store(true)
	t := &VcasList{
		src:  src,
		reg:  reg,
		head: head,
		rngs: make([]core.PaddedUint64, reg.Cap()),
	}
	t.rd = core.NewReader(src, core.QueryAdvances, t)
	return t
}

// Source returns the list's timestamp source.
func (t *VcasList) Source() core.Source { return t.src }

// Reader returns the list's snapshot-read protocol.
func (t *VcasList) Reader() *core.Reader { return t.rd }

// SetHooks wires the list's sinks: GC counters, the flight recorder, the
// retention watermark version truncation respects, and the allocation
// mode of nodes and vCAS versions. Versions detached by Truncate stay
// readable to snapshot readers holding chain pointers, and unlinked nodes
// have no reclamation scheme, so nothing published is ever recycled here
// — the pools provide arena chunking and batching only. Call before
// concurrent traffic.
func (t *VcasList) SetHooks(h core.Hooks) {
	t.gc, t.tr, t.rb = h.GC, h.Trace, h.ReadBound
	t.rd.SetHooks(h)
	t.np = pool.New[vskipNode](t.reg.Cap(), h.Alloc, h.PoolStats)
	t.vp = pool.New[vcas.Version[*vskipNode]](t.reg.Cap(), h.Alloc, h.PoolStats)
	t.bp = pool.New[vcas.Version[bool]](t.reg.Cap(), h.Alloc, h.PoolStats)
}

// newVskipNodeIn is newVskipNode drawing from the node pool when one is
// configured. next0 is left uninitialized: Insert always re-seeds it with
// the real successor, and seeding twice would waste a pooled version.
func (t *VcasList) newVskipNodeIn(tid int, key, val uint64, topLevel int) *vskipNode {
	if t.np == nil {
		return newVskipNode(key, val, topLevel)
	}
	n := t.np.Get(tid)
	n.key, n.val = key, val
	n.topLevel = topLevel
	n.linked.Store(false)
	n.dead.InitIn(t.bp, tid, true) // not yet in any snapshot
	n.upper.reset(topLevel - 1)
	return n
}

func (t *VcasList) loadNext(n *vskipNode, l int) *vskipNode {
	if l == 0 {
		return n.next0.Read(t.src)
	}
	return n.nextAt(l)
}

func (t *VcasList) find(key uint64, preds, succs *[maxLevel]*vskipNode) int {
	lFound := -1
	pred := t.head
	for l := maxLevel - 1; l >= 0; l-- {
		cur := t.loadNext(pred, l)
		for cur != nil && cur.key < key {
			pred = cur
			cur = t.loadNext(cur, l)
		}
		if lFound == -1 && cur != nil && cur.key == key {
			lFound = l
		}
		preds[l] = pred
		succs[l] = cur
	}
	return lFound
}

// lookup returns the node holding key, dead or not, or nil; it stops at
// the level it meets the key on.
func (t *VcasList) lookup(key uint64) *vskipNode {
	pred := t.head
	for l := maxLevel - 1; l >= 0; l-- {
		cur := t.loadNext(pred, l)
		for cur != nil && cur.key < key {
			pred = cur
			cur = t.loadNext(cur, l)
		}
		if cur != nil && cur.key == key {
			return cur
		}
	}
	return nil
}

// Contains reports whether key is present.
func (t *VcasList) Contains(_ *core.Thread, key uint64) bool {
	n := t.lookup(key)
	return n != nil && !n.dead.Read(t.src)
}

// Get returns the value stored at key.
func (t *VcasList) Get(_ *core.Thread, key uint64) (uint64, bool) {
	if n := t.lookup(key); n != nil && !n.dead.Read(t.src) {
		return n.val, true
	}
	return 0, false
}

// Insert adds key with val; it returns false if already present.
func (t *VcasList) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxKey || key == 0 {
		return false
	}
	topLevel := randLevel(t.rngs, th.ID)
	var preds, succs [maxLevel]*vskipNode
	var retries uint64
	for {
		if lFound := t.find(key, &preds, &succs); lFound != -1 {
			f := succs[lFound]
			if !f.dead.Read(t.src) {
				for !f.linked.Load() {
					runtime.Gosched()
				}
				noteRetries(t.tr, th, retries)
				return false
			}
			retries++
			continue // dying node; its unlink is imminent
		}
		var locked [maxLevel]*vskipNode
		nl := lockPreds(&preds, &locked, topLevel)
		valid := true
		for l := 0; l < topLevel; l++ {
			succ := succs[l]
			if preds[l].dead.Read(t.src) || t.loadNext(preds[l], l) != succ ||
				(succ != nil && succ.dead.Read(t.src)) {
				valid = false
				break
			}
		}
		if !valid {
			unlockPreds(&locked, nl)
			retries++
			continue
		}
		am := t.tr.Now()
		n := t.newVskipNodeIn(th.ID, key, val, topLevel)
		t.tr.Span(th.ID, trace.PhaseAlloc, am)
		n.next0.InitIn(t.vp, th.ID, succs[0])
		for l := 1; l < topLevel; l++ {
			n.upper.at(l - 1).Store(succs[l])
		}
		// Liveness first, then reachability: a snapshot that can reach
		// the node always sees it alive at that bound.
		n.dead.WriteIn(t.src, t.bp, th.ID, false)
		preds[0].next0.WriteIn(t.src, t.vp, th.ID, n)
		for l := 1; l < topLevel; l++ {
			preds[l].upper.at(l - 1).Store(n)
		}
		n.linked.Store(true)
		t.truncate(th, preds[0])
		unlockPreds(&locked, nl)
		noteRetries(t.tr, th, retries)
		return true
	}
}

// Delete removes key; it returns false if absent.
func (t *VcasList) Delete(th *core.Thread, key uint64) bool {
	var preds, succs [maxLevel]*vskipNode
	var victim *vskipNode
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
	if victim.dead.Read(t.src) {
		victim.Unlock()
		return false
	}
	victim.dead.WriteIn(t.src, t.bp, th.ID, true) // linearization of the delete
	var locked [maxLevel]*vskipNode
	var retries uint64
	for {
		nl := lockPreds(&preds, &locked, victim.topLevel)
		valid := true
		for l := 0; l < victim.topLevel; l++ {
			if (preds[l] != t.head && preds[l].dead.Read(t.src)) ||
				t.loadNext(preds[l], l) != victim {
				valid = false
				break
			}
		}
		if valid {
			for l := victim.topLevel - 1; l >= 1; l-- {
				preds[l].upper.at(l - 1).Store(victim.nextAt(l))
			}
			preds[0].next0.WriteIn(t.src, t.vp, th.ID, victim.next0.Read(t.src))
			t.truncate(th, preds[0])
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

// truncate trims the version chain a completed update just extended.
func (t *VcasList) truncate(th *core.Thread, n *vskipNode) {
	if d := n.next0.Truncate(core.PruneBoundOf(th, t.rb, t.src)); d > 0 && t.gc != nil {
		t.gc.VersionsPruned.Add(uint64(d))
	}
}

// RangeQuery appends every pair in [lo,hi] as of one snapshot.
func (t *VcasList) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s; the caller holds th's
// reservation (DESIGN.md, "Snapshot reads").
func (t *VcasList) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	if lo == 0 {
		lo = 1
	}
	if hi > MaxKey {
		hi = MaxKey
	}
	tr := t.tr
	th.AnnounceRQ(s)

	// Position via the raw index; verify the landing point belongs to
	// the snapshot, else fall back to the head.
	mark := tr.Now()
	var walk uint64
	pred := t.head
	for l := maxLevel - 1; l >= 1; l-- {
		cur := pred.nextAt(l)
		for cur != nil && cur.key < lo {
			pred = cur
			cur = cur.nextAt(l)
		}
	}
	if pred != t.head {
		d, ok, h := pred.dead.ReadVersionWalk(t.src, s)
		walk += uint64(h)
		if !ok || d {
			pred = t.head
		}
	}
	cur, _, h := pred.next0.ReadVersionWalk(t.src, s)
	walk += uint64(h)
	for cur != nil && cur.key <= hi {
		if cur.key >= lo {
			d, ok, h := cur.dead.ReadVersionWalk(t.src, s)
			walk += uint64(h)
			if ok && !d {
				out = append(out, core.KV{Key: cur.key, Val: cur.val})
			}
		}
		cur, _, h = cur.next0.ReadVersionWalk(t.src, s)
		walk += uint64(h)
	}
	tr.Span(th.ID, trace.PhaseTraverse, mark)
	tr.Count(th.ID, trace.PhaseVersionWalk, walk)
	th.DoneRQ()
	return out
}

// Len counts present keys; quiescent use only.
func (t *VcasList) Len() int {
	n := 0
	for cur := t.head.next0.Read(t.src); cur != nil; cur = cur.next0.Read(t.src) {
		if !cur.dead.Read(t.src) {
			n++
		}
	}
	return n
}
