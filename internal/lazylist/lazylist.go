// Package lazylist implements the lazy sorted linked list (Heller,
// Herlihy, Luchangco, Moir, Scherer, Shavit, OPODIS 2005) augmented with
// range queries via bundled references and via vCAS. The paper tested
// these combinations and reports no TSC benefit — the list's O(n)
// traversal, not the timestamp, is the bottleneck — and our benchmark
// harness reproduces that negative result (BenchmarkLazyList*).
//
// The bundled variant uses the same insertion/deletion-timestamp
// protocol as package skiplist (labels assigned before bundle entries
// finalize) so elemental reads and snapshots share linearization
// instants. The vCAS variant versions both the links and the marked
// flag, so every read fixes labels by helping, as in Wei et al.
package lazylist

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tscds/internal/bundle"
	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
	"tscds/internal/vcas"
)

// MaxKey is the largest insertable key; 0 is the head sentinel's slot.
const MaxKey = ^uint64(0) - 2

// ---------------------------------------------------------------------
// Bundled variant
// ---------------------------------------------------------------------

type bnode struct {
	key, val uint64
	mu       sync.Mutex
	its, dts atomic.Uint64
	next     atomic.Pointer[bnode]
	bnd      bundle.Bundle[bnode]
}

func alive(dts uint64) bool { return dts == 0 || dts == uint64(core.Pending) }

// BundleList is the lazy list with bundled next links.
type BundleList struct {
	src  core.Source
	reg  *core.Registry
	gc   *obs.GC
	tr   *trace.Recorder
	np   *pool.Pool[bnode]
	ep   *pool.Pool[bundle.Entry[bnode]]
	rb   *core.ReadBound
	rd   *core.Reader
	head *bnode
}

// NewBundle creates an empty bundled lazy list.
func NewBundle(src core.Source, reg *core.Registry) *BundleList {
	h := &bnode{}
	h.bnd.Init(nil)
	t := &BundleList{src: src, reg: reg, head: h}
	t.rd = core.NewReader(src, core.QueryReads, t)
	return t
}

// Source returns the list's timestamp source.
func (t *BundleList) Source() core.Source { return t.src }

// Reader returns the list's snapshot-read protocol.
func (t *BundleList) Reader() *core.Reader { return t.rd }

// SetHooks wires the list's sinks: GC counters, the flight recorder, the
// retention watermark entry truncation respects, and the allocation mode
// of nodes and bundle entries. The lazy list has no reclamation scheme —
// unlinked nodes and truncated entry tails stay reachable to in-flight
// readers — so pooling is allocation-side only (arena chunking,
// batching); nothing published is recycled. Call before the list sees
// concurrent traffic.
func (t *BundleList) SetHooks(h core.Hooks) {
	t.gc, t.tr, t.rb = h.GC, h.Trace, h.ReadBound
	t.rd.SetHooks(h)
	t.np = pool.New[bnode](t.reg.Cap(), h.Alloc, h.PoolStats)
	t.ep = pool.New[bundle.Entry[bnode]](t.reg.Cap(), h.Alloc, h.PoolStats)
}

// newBnode allocates an insertable node, from the pool when configured.
func (t *BundleList) newBnode(tid int, key, val uint64) *bnode {
	if t.np == nil {
		n := &bnode{key: key, val: val}
		n.its.Store(uint64(core.Pending))
		return n
	}
	n := t.np.Get(tid)
	n.key, n.val = key, val
	n.its.Store(uint64(core.Pending))
	n.dts.Store(0)
	return n
}

// noteRetries reports an update's validation-failure retries.
func (t *BundleList) noteRetries(th *core.Thread, retries uint64) {
	if t.tr == nil || retries == 0 {
		return
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
}

func (t *BundleList) find(key uint64) (pred, cur *bnode) {
	pred = t.head
	cur = pred.next.Load()
	for cur != nil && cur.key < key {
		pred = cur
		cur = cur.next.Load()
	}
	return pred, cur
}

// Contains reports whether key is present.
func (t *BundleList) Contains(_ *core.Thread, key uint64) bool {
	_, cur := t.find(key)
	if cur == nil || cur.key != key {
		return false
	}
	if cur.its.Load() == uint64(core.Pending) {
		return false
	}
	return alive(cur.dts.Load())
}

// Get returns the value stored at key.
func (t *BundleList) Get(th *core.Thread, key uint64) (uint64, bool) {
	_, cur := t.find(key)
	if cur == nil || cur.key != key || cur.its.Load() == uint64(core.Pending) || !alive(cur.dts.Load()) {
		return 0, false
	}
	return cur.val, true
}

// Insert adds key with val; it returns false if already present.
func (t *BundleList) Insert(th *core.Thread, key, val uint64) bool {
	if key == 0 || key > MaxKey {
		return false
	}
	var retries uint64
	for {
		pred, cur := t.find(key)
		if cur != nil && cur.key == key {
			for cur.its.Load() == uint64(core.Pending) {
				runtime.Gosched()
			}
			if !alive(cur.dts.Load()) {
				retries++
				continue // deleted, unlink imminent
			}
			t.noteRetries(th, retries)
			return false
		}
		pred.mu.Lock()
		if !alive(pred.dts.Load()) || pred.next.Load() != cur {
			pred.mu.Unlock()
			retries++
			continue
		}
		am := t.tr.Now()
		n := t.newBnode(th.ID, key, val)
		t.tr.Span(th.ID, trace.PhaseAlloc, am)
		n.next.Store(cur)
		// The Prepare..Finalize window is bundling's labeling phase. The
		// timestamp is read before the node is reachable (DESIGN §6): an
		// update that hangs a key behind n must take a later one.
		lb := t.tr.Now()
		eInit := n.bnd.InitPendingIn(t.ep, th.ID, cur)
		ePred := pred.bnd.PrepareIn(t.ep, th.ID, n)
		ts := t.src.Advance()
		pred.next.Store(n)
		n.its.Store(ts)
		pred.bnd.Finalize(ePred, ts)
		n.bnd.Finalize(eInit, ts)
		t.tr.Span(th.ID, trace.PhaseLabel, lb)
		t.truncate(th, pred)
		pred.mu.Unlock()
		t.noteRetries(th, retries)
		return true
	}
}

// Delete removes key; it returns false if absent.
func (t *BundleList) Delete(th *core.Thread, key uint64) bool {
	var retries uint64
	for {
		pred, cur := t.find(key)
		if cur == nil || cur.key != key {
			t.noteRetries(th, retries)
			return false
		}
		for cur.its.Load() == uint64(core.Pending) {
			runtime.Gosched()
		}
		pred.mu.Lock()
		cur.mu.Lock()
		if !alive(pred.dts.Load()) || pred.next.Load() != cur {
			cur.mu.Unlock()
			pred.mu.Unlock()
			retries++
			continue
		}
		if !alive(cur.dts.Load()) {
			cur.mu.Unlock()
			pred.mu.Unlock()
			t.noteRetries(th, retries)
			return false
		}
		lb := t.tr.Now()
		ePred := pred.bnd.PrepareIn(t.ep, th.ID, cur.next.Load())
		ts := t.src.Advance()
		cur.dts.Store(ts) // linearization
		pred.bnd.Finalize(ePred, ts)
		pred.next.Store(cur.next.Load())
		t.tr.Span(th.ID, trace.PhaseLabel, lb)
		t.truncate(th, pred)
		cur.mu.Unlock()
		pred.mu.Unlock()
		t.noteRetries(th, retries)
		return true
	}
}

// truncate trims the bundle a completed update just extended.
func (t *BundleList) truncate(th *core.Thread, n *bnode) {
	if d := n.bnd.Truncate(core.PruneBoundOf(th, t.rb, t.src)); d > 0 && t.gc != nil {
		t.gc.BundlePruned.Add(uint64(d))
	}
}

// RangeQuery appends every pair in [lo,hi] as of one snapshot. The walk
// starts at the head: unlike the skip list there is no index, which is
// exactly why the paper saw no TSC gain here — the O(n) walk dwarfs the
// timestamp access.
func (t *BundleList) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s; the caller holds th's
// reservation (DESIGN.md, "Snapshot reads").
func (t *BundleList) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	if lo == 0 {
		lo = 1
	}
	if hi > MaxKey {
		hi = MaxKey
	}
	tr := t.tr
	th.AnnounceRQ(s)
	mark := tr.Now()
	var derefs, spins uint64
	cur, ok, d, sp := t.head.bnd.PtrAtWalk(s)
	derefs, spins = uint64(d), uint64(sp)
	for ok && cur != nil && cur.key <= hi {
		if cur.key >= lo {
			out = append(out, core.KV{Key: cur.key, Val: cur.val})
		}
		cur, ok, d, sp = cur.bnd.PtrAtWalk(s)
		derefs += uint64(d)
		spins += uint64(sp)
	}
	tr.Span(th.ID, trace.PhaseTraverse, mark)
	tr.Count(th.ID, trace.PhaseBundleDeref, derefs)
	tr.Count(th.ID, trace.PhasePendingWait, spins)
	th.DoneRQ()
	return out
}

// Len counts present keys; quiescent use only.
func (t *BundleList) Len() int {
	n := 0
	for cur := t.head.next.Load(); cur != nil; cur = cur.next.Load() {
		n++
	}
	return n
}

// ---------------------------------------------------------------------
// vCAS variant
// ---------------------------------------------------------------------

type vnode struct {
	key, val uint64
	mu       sync.Mutex
	marked   vcas.Object[bool]
	next     vcas.Object[*vnode]
}

func newVnode(key, val uint64, next *vnode) *vnode {
	n := &vnode{key: key, val: val}
	n.marked.Init(false)
	n.next.Init(next)
	return n
}

// VcasList is the lazy list with versioned links and marks.
type VcasList struct {
	src  core.Source
	reg  *core.Registry
	gc   *obs.GC
	tr   *trace.Recorder
	np   *pool.Pool[vnode]
	vp   *pool.Pool[vcas.Version[*vnode]]
	bp   *pool.Pool[vcas.Version[bool]]
	rb   *core.ReadBound
	rd   *core.Reader
	head *vnode
}

// NewVcas creates an empty vCAS lazy list.
func NewVcas(src core.Source, reg *core.Registry) *VcasList {
	t := &VcasList{src: src, reg: reg, head: newVnode(0, 0, nil)}
	t.rd = core.NewReader(src, core.QueryAdvances, t)
	return t
}

// Source returns the list's timestamp source.
func (t *VcasList) Source() core.Source { return t.src }

// Reader returns the list's snapshot-read protocol.
func (t *VcasList) Reader() *core.Reader { return t.rd }

// SetHooks wires the list's sinks: GC counters, the flight recorder, the
// retention watermark version truncation respects, and the allocation
// mode of nodes and vCAS versions. As with the bundled variant, nothing
// published is ever recycled — versions detached by Truncate stay
// readable to snapshot readers — so the pools supply arena chunking and
// batching only. Call before the list sees concurrent traffic.
func (t *VcasList) SetHooks(h core.Hooks) {
	t.gc, t.tr, t.rb = h.GC, h.Trace, h.ReadBound
	t.rd.SetHooks(h)
	t.np = pool.New[vnode](t.reg.Cap(), h.Alloc, h.PoolStats)
	t.vp = pool.New[vcas.Version[*vnode]](t.reg.Cap(), h.Alloc, h.PoolStats)
	t.bp = pool.New[vcas.Version[bool]](t.reg.Cap(), h.Alloc, h.PoolStats)
}

// newVnodeIn is newVnode drawing the node and its seed versions from the
// pools when configured.
func (t *VcasList) newVnodeIn(tid int, key, val uint64, next *vnode) *vnode {
	if t.np == nil {
		return newVnode(key, val, next)
	}
	n := t.np.Get(tid)
	n.key, n.val = key, val
	n.marked.InitIn(t.bp, tid, false)
	n.next.InitIn(t.vp, tid, next)
	return n
}

// noteRetries reports an update's validation-failure retries.
func (t *VcasList) noteRetries(th *core.Thread, retries uint64) {
	if t.tr == nil || retries == 0 {
		return
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
}

func (t *VcasList) find(key uint64) (pred, cur *vnode) {
	pred = t.head
	cur = pred.next.Read(t.src)
	for cur != nil && cur.key < key {
		pred = cur
		cur = cur.next.Read(t.src)
	}
	return pred, cur
}

// Contains reports whether key is present.
func (t *VcasList) Contains(_ *core.Thread, key uint64) bool {
	_, cur := t.find(key)
	return cur != nil && cur.key == key && !cur.marked.Read(t.src)
}

// Get returns the value stored at key.
func (t *VcasList) Get(th *core.Thread, key uint64) (uint64, bool) {
	_, cur := t.find(key)
	if cur == nil || cur.key != key || cur.marked.Read(t.src) {
		return 0, false
	}
	return cur.val, true
}

// Insert adds key with val; it returns false if already present.
func (t *VcasList) Insert(th *core.Thread, key, val uint64) bool {
	if key == 0 || key > MaxKey {
		return false
	}
	var retries uint64
	for {
		pred, cur := t.find(key)
		if cur != nil && cur.key == key && !cur.marked.Read(t.src) {
			t.noteRetries(th, retries)
			return false
		}
		if cur != nil && cur.key == key {
			retries++
			continue // marked; wait for unlink
		}
		pred.mu.Lock()
		if pred.marked.Read(t.src) || pred.next.Read(t.src) != cur {
			pred.mu.Unlock()
			retries++
			continue
		}
		am := t.tr.Now()
		n := t.newVnodeIn(th.ID, key, val, cur)
		t.tr.Span(th.ID, trace.PhaseAlloc, am)
		pred.next.WriteIn(t.src, t.vp, th.ID, n)
		t.truncate(th, pred)
		pred.mu.Unlock()
		t.noteRetries(th, retries)
		return true
	}
}

// Delete removes key; it returns false if absent.
func (t *VcasList) Delete(th *core.Thread, key uint64) bool {
	var retries uint64
	for {
		pred, cur := t.find(key)
		if cur == nil || cur.key != key {
			t.noteRetries(th, retries)
			return false
		}
		pred.mu.Lock()
		cur.mu.Lock()
		if pred.marked.Read(t.src) || pred.next.Read(t.src) != cur {
			cur.mu.Unlock()
			pred.mu.Unlock()
			retries++
			continue
		}
		if cur.marked.Read(t.src) {
			cur.mu.Unlock()
			pred.mu.Unlock()
			t.noteRetries(th, retries)
			return false
		}
		cur.marked.WriteIn(t.src, t.bp, th.ID, true) // linearization
		pred.next.WriteIn(t.src, t.vp, th.ID, cur.next.Read(t.src))
		t.truncate(th, pred)
		cur.mu.Unlock()
		pred.mu.Unlock()
		t.noteRetries(th, retries)
		return true
	}
}

// truncate trims the version chain a completed update just extended.
func (t *VcasList) truncate(th *core.Thread, n *vnode) {
	if d := n.next.Truncate(core.PruneBoundOf(th, t.rb, t.src)); d > 0 && t.gc != nil {
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
	mark := tr.Now()
	var walk uint64
	cur, _, h := t.head.next.ReadVersionWalk(t.src, s)
	walk += uint64(h)
	for cur != nil && cur.key <= hi {
		if cur.key >= lo {
			m, ok, h := cur.marked.ReadVersionWalk(t.src, s)
			walk += uint64(h)
			if ok && !m {
				out = append(out, core.KV{Key: cur.key, Val: cur.val})
			}
		}
		cur, _, h = cur.next.ReadVersionWalk(t.src, s)
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
	for cur := t.head.next.Read(t.src); cur != nil; cur = cur.next.Read(t.src) {
		n++
	}
	return n
}
