package lfbst

import (
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/epoch"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
)

// This file hosts the EBR-RQ augmentation of the same EFRB external BST:
// the pairing the original EBR-RQ paper targets (lock-free structure,
// range queries via insertion/deletion labels plus limbo-list scans).
// The lock-free labeling variant uses DCSS against the logical
// timestamp's address; the lock-based variant shares the global
// readers-writer lock. Per the paper's §IV, the lock-free variant
// cannot exist over TSC at all, and the lock-based one gains little.

// enode is an EFRB node carrying EBR-RQ labels on leaves.
type enode struct {
	key  uint64
	val  uint64
	leaf bool
	// leaves only:
	itime, dtime ebrrq.Label
	// limboRefs counts limbo entries holding this leaf. A leaf can
	// legitimately be retired more than once: a deleter retires before
	// its flag CAS (scannable-before-unreachable), the attempt can fail
	// with the leaf surviving, and a later delete — possibly by another
	// thread that raced past the same dtime==Pending check — retires it
	// again. With a Recycle hook each limbo entry eventually reports the
	// leaf once, so the pool may take it only when the count hits zero;
	// recycling on the first report would double-free the second entry.
	limboRefs atomic.Int32
	// internal nodes only:
	left, right atomic.Pointer[enode]
	update      atomicEUpdate
}

type atomicEUpdate struct {
	p atomic.Pointer[eUpdateRec]
}

func (a *atomicEUpdate) load() *eUpdateRec {
	if v := a.p.Load(); v != nil {
		return v
	}
	return eCleanRec
}

func (a *atomicEUpdate) cas(old, new *eUpdateRec) bool { return a.p.CompareAndSwap(old, new) }

type eUpdateRec struct {
	state uint8
	ins   *eInsertInfo
	del   *eDeleteInfo
}

var eCleanRec = &eUpdateRec{state: clean}

type eInsertInfo struct {
	p, l, newInternal *enode
	newLeaf           *enode // labeled by whoever completes the insert
	flag              *eUpdateRec
}

type eDeleteInfo struct {
	gp, p, l *enode
	pupdate  *eUpdateRec
	flag     *eUpdateRec
}

func newELeaf(key, val uint64) *enode {
	n := &enode{key: key, val: val, leaf: true}
	n.itime.Init()
	n.dtime.Init()
	return n
}

func newEInternal(key uint64, l, r *enode) *enode {
	n := &enode{key: key}
	n.left.Store(l)
	n.right.Store(r)
	n.update.p.Store(eCleanRec)
	return n
}

// EBRTree is the lock-free BST augmented with EBR-RQ range queries.
type EBRTree struct {
	src      core.Source
	provider *ebrrq.Provider
	reg      *core.Registry
	em       *epoch.Manager[*enode]
	tr       *trace.Recorder
	np       *pool.Pool[enode] // nil in GC mode
	rd       *core.Reader
	root     *enode
}

// NewEBR builds an empty tree; the LockFree variant requires an
// addressable (logical) source and otherwise returns
// ebrrq.ErrRequiresAddress.
func NewEBR(src core.Source, reg *core.Registry, variant ebrrq.Variant) (*EBRTree, error) {
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
	t := &EBRTree{
		src:      src,
		provider: provider,
		reg:      reg,
		root:     newEInternal(inf2, newELeaf(inf1, 0), newELeaf(inf2, 0)),
	}
	t.em = epoch.NewManager[*enode](reg,
		func(n *enode, min core.TS) bool { return n.dtime.Get() >= min })
	t.rd = core.NewReader(src, core.QueryAdvancesLocked(provider), t)
	return t, nil
}

// Source returns the tree's timestamp source.
func (t *EBRTree) Source() core.Source { return t.src }

// Reader returns the tree's snapshot-read protocol.
func (t *EBRTree) Reader() *core.Reader { return t.rd }

// SetHooks wires the tree's sinks: limbo-list counters, the flight
// recorder — through the tree, its timestamp provider (lock-wait/label
// spans) and its epoch manager (pin/advance stalls) — and the allocation
// mode, with pruned limbo leaves recycled into the pool, gated by the
// per-leaf limbo reference count (see enode.limboRefs). Only leaves ever
// enter limbo; internal nodes are pool-*allocated* but reclaimed by the
// GC, since nothing proves when the last helper drops a spliced-out
// internal node. The eUpdateRec/eInsertInfo/eDeleteInfo records stay
// heap-allocated on purpose: the EFRB protocol compares them by pointer
// identity, so recycling them would reintroduce ABA on the update-field
// CASes. The retention watermark is not used: limbo holds deleted nodes,
// not history. Call before the tree sees traffic.
func (t *EBRTree) SetHooks(h core.Hooks) {
	t.tr = h.Trace
	t.rd.SetHooks(h)
	t.provider.SetTrace(h.Trace)
	t.em.SetTrace(h.Trace)
	t.em.SetGC(h.GC)
	t.np = pool.New[enode](t.reg.Cap(), h.Alloc, h.PoolStats)
	if t.np != nil {
		t.em.SetRecycle(func(n *enode, tid int) {
			if n.limboRefs.Add(-1) == 0 {
				t.np.Put(tid, n)
			}
		})
	}
}

// newLeaf acquires and fully re-initializes a leaf. One recycled node
// may have served as an internal node before, so every discriminating
// field is reset (leaf=true and fresh labels decide visibility).
func (t *EBRTree) newLeaf(tid int, key, val uint64) *enode {
	if t.np == nil {
		return newELeaf(key, val)
	}
	n := t.np.Get(tid)
	n.key, n.val, n.leaf = key, val, true
	n.itime.Init()
	n.dtime.Init()
	n.left.Store(nil)
	n.right.Store(nil)
	n.update.p.Store(nil)
	return n
}

// newInternal is newLeaf's internal-node counterpart; leaf=false gates
// every label read, so stale labels from a previous life as a leaf are
// unreachable.
func (t *EBRTree) newInternal(tid int, key uint64, l, r *enode) *enode {
	if t.np == nil {
		return newEInternal(key, l, r)
	}
	n := t.np.Get(tid)
	n.key, n.val, n.leaf = key, 0, false
	n.left.Store(l)
	n.right.Store(r)
	n.update.p.Store(eCleanRec)
	return n
}

func (t *EBRTree) noteUpdate(th *core.Thread, retries, helps uint64) {
	if t.tr == nil {
		return
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
	t.tr.Count(th.ID, trace.PhaseHelp, helps)
}

// LimboLen reports retained limbo leaves (tests).
func (t *EBRTree) LimboLen() int { return t.em.LimboLen() }

// Drain eagerly advances the epoch and prunes every limbo list.
// Quiescent use only, like Len.
func (t *EBRTree) Drain() { t.em.DrainAll() }

func (t *EBRTree) child(n *enode, key uint64) *atomic.Pointer[enode] {
	if key < n.key {
		return &n.left
	}
	return &n.right
}

type eSearchResult struct {
	gp, p, l          *enode
	gpupdate, pupdate *eUpdateRec
}

func (t *EBRTree) search(key uint64) eSearchResult {
	var r eSearchResult
	r.l = t.root
	for !r.l.leaf {
		r.gp, r.p = r.p, r.l
		r.gpupdate = r.pupdate
		r.pupdate = r.p.update.load()
		r.l = t.child(r.p, key).Load()
	}
	return r
}

// Contains reports whether key is present: leaf reachable, its insert
// linearized (itime assigned), its delete not (dtime unassigned). A
// pending label means the corresponding update has not linearized yet,
// keeping contains consistent with snapshot visibility.
func (t *EBRTree) Contains(th *core.Thread, key uint64) bool {
	t.em.Pin(th.ID)
	l := t.search(key).l
	t.em.Unpin(th.ID)
	return l.key == key && l.itime.Get() != core.Pending && l.dtime.Get() == core.Pending
}

// Get returns the value stored at key.
func (t *EBRTree) Get(th *core.Thread, key uint64) (uint64, bool) {
	t.em.Pin(th.ID)
	l := t.search(key).l
	t.em.Unpin(th.ID)
	if l.key != key || l.itime.Get() == core.Pending || l.dtime.Get() != core.Pending {
		return 0, false
	}
	return l.val, true
}

// Insert adds key with val; it returns false if key is already present.
func (t *EBRTree) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxKey {
		return false
	}
	t.em.Pin(th.ID)
	defer t.em.Unpin(th.ID)
	amark := t.tr.Now()
	nl := t.newLeaf(th.ID, key, val)
	t.tr.Span(th.ID, trace.PhaseAlloc, amark)
	var retries, helps uint64
	for {
		r := t.search(key)
		if r.l.key == key {
			if r.l.dtime.Get() != core.Pending {
				// Deleted leaf still wired in; help remove and retry.
				if r.pupdate.state != clean {
					t.help(r.pupdate)
					helps++
				}
				retries++
				continue
			}
			// Help the racing insert linearize before failing against it.
			t.provider.Label(&r.l.itime)
			t.noteUpdate(th, retries, helps)
			// nl was never published; it can go straight back.
			t.np.Put(th.ID, nl)
			return false
		}
		if r.pupdate.state != clean {
			t.help(r.pupdate)
			helps++
			retries++
			continue
		}
		var ni *enode
		if key < r.l.key {
			ni = t.newInternal(th.ID, r.l.key, nl, r.l)
		} else {
			ni = t.newInternal(th.ID, key, r.l, nl)
		}
		op := &eInsertInfo{p: r.p, l: r.l, newInternal: ni, newLeaf: nl}
		rec := &eUpdateRec{state: iflag, ins: op}
		op.flag = rec
		if r.p.update.cas(r.pupdate, rec) {
			t.helpInsert(op)
			t.noteUpdate(th, retries, helps)
			return true
		}
		t.help(r.p.update.load())
		// The flag CAS failed, so op was never installed and ni never
		// became reachable; reuse it next attempt.
		t.np.Put(th.ID, ni)
		helps++
		retries++
	}
}

// Delete removes key; it returns false if absent.
func (t *EBRTree) Delete(th *core.Thread, key uint64) bool {
	if key > MaxKey {
		return false
	}
	t.em.Pin(th.ID)
	defer t.em.Unpin(th.ID)
	var retired *enode // the leaf this call last put in limbo
	var retries, helps uint64
	for {
		r := t.search(key)
		if r.l.key != key || r.l.dtime.Get() != core.Pending {
			t.noteUpdate(th, retries, helps)
			return false
		}
		if r.l.itime.Get() == core.Pending {
			// Help the insert linearize before deleting its leaf.
			t.provider.Label(&r.l.itime)
			helps++
			retries++
			continue
		}
		if r.gpupdate.state != clean {
			t.help(r.gpupdate)
			helps++
			retries++
			continue
		}
		if r.pupdate.state != clean {
			t.help(r.pupdate)
			helps++
			retries++
			continue
		}
		// Make the leaf scannable in limbo BEFORE any helper can splice
		// it out of the tree: a leaf must never be unreachable in both.
		// Retiring a leaf that ends up surviving (this attempt fails) is
		// harmless — visibility is decided by its labels, not by limbo
		// membership, and range queries deduplicate. A retry can meet a
		// different leaf (the key was deleted and re-inserted between
		// two attempts); that one needs its own limbo entry.
		//
		// Limbo order (ebrrq.Collector.AddLimbo, epoch's prune): this loop
		// is left only once the retired leaf is labeled — by this thread
		// or a helper — and the leaf retired next is marked, hence
		// labeled, after that, so labels never increase down the list
		// (TestEBRBSTLimboLabeledAtQuiescence).
		if retired != r.l {
			if t.np != nil {
				r.l.limboRefs.Add(1)
			}
			t.em.Retire(th.ID, r.l)
			retired = r.l
		}
		op := &eDeleteInfo{gp: r.gp, p: r.p, l: r.l, pupdate: r.pupdate}
		rec := &eUpdateRec{state: dflag, del: op}
		op.flag = rec
		if r.gp.update.cas(r.gpupdate, rec) {
			if t.helpDelete(op) {
				t.noteUpdate(th, retries, helps)
				return true
			}
			retries++
			continue
		}
		t.help(r.gp.update.load())
		helps++
		retries++
	}
}

func (t *EBRTree) help(u *eUpdateRec) {
	switch u.state {
	case iflag:
		t.helpInsert(u.ins)
	case dflag:
		t.helpDelete(u.del)
	case mark:
		t.helpMarked(u.del)
	}
}

func (t *EBRTree) helpInsert(op *eInsertInfo) {
	t.casChild(op.p, op.l, op.newInternal)
	// Whoever completes the insert linearizes it; Label assigns once.
	t.provider.Label(&op.newLeaf.itime)
	op.p.update.cas(op.flag, &eUpdateRec{state: clean})
}

func (t *EBRTree) helpDelete(op *eDeleteInfo) bool {
	markRec := &eUpdateRec{state: mark, del: op}
	if op.p.update.cas(op.pupdate, markRec) {
		// The mark is the point of no return: the splice is now
		// inevitable, so the delete linearizes here, before any helper
		// can make the leaf unreachable.
		t.provider.Label(&op.l.dtime)
		t.helpMarked(op)
		return true
	}
	cur := op.p.update.load()
	if cur.state == mark && cur.del == op {
		t.provider.Label(&op.l.dtime)
		t.helpMarked(op)
		return true
	}
	t.help(cur)
	op.gp.update.cas(op.flag, &eUpdateRec{state: clean})
	return false
}

func (t *EBRTree) helpMarked(op *eDeleteInfo) {
	// Every path into the splice first attempts the dtime label, so an
	// unreachable leaf is always labeled (and already in limbo).
	t.provider.Label(&op.l.dtime)
	var other *enode
	if right := op.p.right.Load(); right == op.l {
		other = op.p.left.Load()
	} else {
		other = right
	}
	t.casChild(op.gp, op.p, other)
	op.gp.update.cas(op.flag, &eUpdateRec{state: clean})
}

func (t *EBRTree) casChild(parent, old, new *enode) bool {
	if new.key < parent.key {
		return parent.left.CompareAndSwap(old, new)
	}
	return parent.right.CompareAndSwap(old, new)
}

// RangeQuery appends every pair with lo <= key <= hi as of one
// linearizable snapshot: live leaves satisfying the visibility predicate
// plus limbo leaves deleted after the snapshot bound.
func (t *EBRTree) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s; the caller holds th's
// reservation and took s under the provider's RQLock (DESIGN.md,
// "Snapshot reads").
func (t *EBRTree) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	if hi > MaxKey {
		hi = MaxKey
	}
	t.em.Pin(th.ID)
	tr := t.tr
	var mark uint64
	if tr != nil {
		mark = tr.Now()
	}
	th.AnnounceRQ(s)

	c := ebrrq.NewCollector(out, lo, hi, s)
	ebrCollect(t.root, &c, lo, hi)
	if tr != nil {
		tr.Span(th.ID, trace.PhaseTraverse, mark)
		mark = tr.Now()
	}
	t.em.WalkLimbo(func(n *enode) bool {
		return c.AddLimbo(n.key, n.val, &n.itime, &n.dtime)
	})
	if tr != nil {
		tr.Span(th.ID, trace.PhaseLimboScan, mark)
	}

	t.em.Unpin(th.ID)
	th.DoneRQ()
	return c.Finish()
}

// ebrCollect offers the leaves under n to c in key order, descending
// only into children that can hold keys of [lo, hi].
func ebrCollect(n *enode, c *ebrrq.Collector, lo, hi uint64) {
	if n == nil {
		return
	}
	if n.leaf {
		c.Add(n.key, n.val, &n.itime, &n.dtime)
		return
	}
	if lo < n.key {
		ebrCollect(n.left.Load(), c, lo, hi)
	}
	if hi >= n.key {
		ebrCollect(n.right.Load(), c, lo, hi)
	}
}

// Len counts present keys; quiescent use only (tests).
func (t *EBRTree) Len() int {
	n := 0
	var walk func(*enode)
	walk = func(x *enode) {
		if x == nil {
			return
		}
		if x.leaf {
			if x.key <= MaxKey && x.dtime.Get() == core.Pending {
				n++
			}
			return
		}
		walk(x.left.Load())
		walk(x.right.Load())
	}
	walk(t.root)
	return n
}
