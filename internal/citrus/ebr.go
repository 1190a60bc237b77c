package citrus

import (
	"sync"
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/epoch"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
	"tscds/internal/rcu"
)

// enode is a Citrus node carrying EBR-RQ insertion/deletion labels.
type enode struct {
	key, val     uint64
	mu           sync.Mutex
	marked       bool
	tag          atomic.Uint32 // see citrus.go: bumped when a child link goes back to nil
	child        [2]atomic.Pointer[enode]
	itime, dtime ebrrq.Label
}

func newEnode(key, val uint64) *enode {
	n := &enode{key: key, val: val}
	n.itime.Init()
	n.dtime.Init()
	return n
}

// EBRTree is the Citrus tree augmented with EBR-RQ (Figure 4). Every
// label assignment goes through the ebrrq.Provider: in the lock-based
// variant updates share-lock the global readers-writer lock around
// (read timestamp, write label) while range queries take it exclusively
// — the coarse-grained labeling that, per §IV, caps what TSC can
// deliver. Deleted nodes are retired to EBR limbo lists *before* being
// unlinked, so a range query always finds a deleted-after-its-snapshot
// node either in the tree or in limbo.
type EBRTree struct {
	src      core.Source
	provider *ebrrq.Provider
	reg      *core.Registry
	rcu      *rcu.RCU
	em       *epoch.Manager[*enode]
	tr       *trace.Recorder
	np       *pool.Pool[enode] // nil in GC mode
	rd       *core.Reader
	root     *enode
}

// NewEBR builds an empty tree. variant selects lock-based or lock-free
// labeling; the lock-free variant requires an addressable (logical)
// source and otherwise returns ebrrq.ErrRequiresAddress — the paper's
// "TSC cannot be used at all here" case.
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
		rcu:      rcu.New(reg),
		root:     newEnode(sentinelKey, 0),
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
// mode, with pruned limbo nodes recycled into the pool. Citrus retires
// each node exactly once (the marked flag flips under the node's lock
// before the only Retire it will ever see), so unlike the lock-free BST no
// limbo reference count is needed. The retention watermark is not used:
// limbo holds deleted nodes, not history. Call before the tree sees
// traffic.
func (t *EBRTree) SetHooks(h core.Hooks) {
	t.tr = h.Trace
	t.rd.SetHooks(h)
	t.provider.SetTrace(h.Trace)
	t.em.SetTrace(h.Trace)
	t.em.SetGC(h.GC)
	t.np = pool.New[enode](t.reg.Cap(), h.Alloc, h.PoolStats)
	if t.np != nil {
		t.em.SetRecycle(func(n *enode, tid int) { t.np.Put(tid, n) })
	}
}

// newNode acquires and fully re-initializes a node. marked=false and
// fresh labels are the load-bearing resets: a recycled marked=true
// would make every validation against the node fail forever, and stale
// labels would corrupt snapshot visibility.
func (t *EBRTree) newNode(tid int, key, val uint64) *enode {
	if t.np == nil {
		return newEnode(key, val)
	}
	n := t.np.Get(tid)
	n.key, n.val = key, val
	n.marked = false
	n.child[0].Store(nil)
	n.child[1].Store(nil)
	n.itime.Init()
	n.dtime.Init()
	return n
}

func (t *EBRTree) noteRetries(th *core.Thread, retries uint64) {
	if t.tr == nil {
		return
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
}

// LimboLen reports retained limbo nodes (tests).
func (t *EBRTree) LimboLen() int { return t.em.LimboLen() }

// Drain eagerly advances the epoch and prunes every limbo list.
// Quiescent use only, like Len.
func (t *EBRTree) Drain() { t.em.DrainAll() }

// traverse returns the node holding key (nil if absent), its parent, and
// the parent's tag, read inside the same RCU read-side section.
func (t *EBRTree) traverse(tid int, key uint64) (prev, curr *enode, tag uint32) {
	t.rcu.ReadLock(tid)
	prev = t.root
	curr = prev.child[dirOf(key, prev.key)].Load()
	for curr != nil && curr.key != key {
		prev = curr
		curr = curr.child[dirOf(key, curr.key)].Load()
	}
	tag = prev.tag.Load()
	t.rcu.ReadUnlock(tid)
	return prev, curr, tag
}

// Contains reports whether key is present.
func (t *EBRTree) Contains(th *core.Thread, key uint64) bool {
	t.em.Pin(th.ID)
	_, curr, _ := t.traverse(th.ID, key)
	t.em.Unpin(th.ID)
	return curr != nil
}

// Get returns the value stored at key.
func (t *EBRTree) Get(th *core.Thread, key uint64) (uint64, bool) {
	t.em.Pin(th.ID)
	_, curr, _ := t.traverse(th.ID, key)
	t.em.Unpin(th.ID)
	if curr == nil {
		return 0, false
	}
	return curr.val, true
}

func validateELink(prev *enode, dir int, curr *enode) bool {
	return !prev.marked && prev.child[dir].Load() == curr
}

// validateEInsert is validateELink for an empty slot found with the
// given tag: still empty, and never refilled and emptied in between.
func validateEInsert(prev *enode, dir int, tag uint32) bool {
	return validateELink(prev, dir, nil) && prev.tag.Load() == tag
}

// setEChild stores prev's child link under prev's lock, bumping the
// node's tag when the link goes back to nil.
func setEChild(prev *enode, dir int, target *enode) {
	prev.child[dir].Store(target)
	if target == nil {
		prev.tag.Add(1)
	}
}

// Insert adds key with val; it returns false if already present.
func (t *EBRTree) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxKey {
		return false
	}
	t.em.Pin(th.ID)
	defer t.em.Unpin(th.ID)
	var retries uint64
	for {
		prev, curr, tag := t.traverse(th.ID, key)
		if curr != nil {
			t.noteRetries(th, retries)
			return false
		}
		dir := dirOf(key, prev.key)
		prev.mu.Lock()
		if !validateEInsert(prev, dir, tag) {
			prev.mu.Unlock()
			retries++
			continue
		}
		amark := t.tr.Now()
		n := t.newNode(th.ID, key, val)
		t.tr.Span(th.ID, trace.PhaseAlloc, amark)
		prev.child[dir].Store(n)
		t.provider.Label(&n.itime) // linearization: (read ts, label) atomic
		prev.mu.Unlock()
		t.noteRetries(th, retries)
		return true
	}
}

// Delete removes key; it returns false if absent.
func (t *EBRTree) Delete(th *core.Thread, key uint64) bool {
	if key > MaxKey {
		return false
	}
	t.em.Pin(th.ID)
	defer t.em.Unpin(th.ID)
	var retries uint64
	for {
		prev, curr, _ := t.traverse(th.ID, key)
		if curr == nil {
			t.noteRetries(th, retries)
			return false
		}
		dir := dirOf(key, prev.key)
		prev.mu.Lock()
		curr.mu.Lock()
		if curr.marked || !validateELink(prev, dir, curr) {
			curr.mu.Unlock()
			prev.mu.Unlock()
			retries++
			continue
		}
		left := curr.child[0].Load()
		right := curr.child[1].Load()
		if left == nil || right == nil {
			repl := left
			if repl == nil {
				repl = right
			}
			t.provider.Label(&curr.dtime) // linearization of the delete
			curr.marked = true
			t.em.Retire(th.ID, curr) // limbo before unlink: never invisible
			setEChild(prev, dir, repl)
			curr.mu.Unlock()
			prev.mu.Unlock()
			t.noteRetries(th, retries)
			return true
		}
		if t.deleteTwoChildren(th, prev, dir, curr, left, right) {
			curr.mu.Unlock()
			prev.mu.Unlock()
			t.noteRetries(th, retries)
			return true
		}
		curr.mu.Unlock()
		prev.mu.Unlock()
		retries++
	}
}

func (t *EBRTree) deleteTwoChildren(th *core.Thread, prev *enode, dir int, curr, left, right *enode) bool {
	succPrev := curr
	succ := right
	for {
		next := succ.child[0].Load()
		if next == nil {
			break
		}
		succPrev = succ
		succ = next
	}
	if succPrev != curr {
		succPrev.mu.Lock()
	}
	succ.mu.Lock()
	valid := !succ.marked && !succPrev.marked && succ.child[0].Load() == nil
	if succPrev == curr {
		valid = valid && succPrev.child[1].Load() == succ
	} else {
		valid = valid && succPrev.child[0].Load() == succ
	}
	if !valid {
		succ.mu.Unlock()
		if succPrev != curr {
			succPrev.mu.Unlock()
		}
		return false
	}

	n := t.newNode(th.ID, succ.key, succ.val)
	n.child[0].Store(left)
	n.child[1].Store(right)
	n.mu.Lock()

	curr.marked = true
	prev.child[dir].Store(n)
	// Label the copy before the original successor's deletion label so
	// the successor's key is never invisible: snapshots in the overlap
	// window see both and deduplicate.
	t.provider.Label(&n.itime)
	t.provider.Label(&curr.dtime)
	t.em.Retire(th.ID, curr)

	t.rcu.Synchronize()

	succ.marked = true
	t.provider.Label(&succ.dtime)
	t.em.Retire(th.ID, succ)
	succRight := succ.child[1].Load()
	if succPrev == curr {
		setEChild(n, 1, succRight)
	} else {
		setEChild(succPrev, 0, succRight)
	}

	n.mu.Unlock()
	succ.mu.Unlock()
	if succPrev != curr {
		succPrev.mu.Unlock()
	}
	return true
}

// RangeQuery appends every pair with lo <= key <= hi as of one
// linearizable snapshot: nodes inserted at or before the bound and not
// deleted at or before it, found in the live tree or — for nodes removed
// during the traversal — in the EBR limbo lists.
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
	ebrCollect(t.root.child[0].Load(), &c, lo, hi)
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

// ebrCollect offers the subtree under n to c in key order, descending
// only into children that can hold keys of [lo, hi]. The right subtree
// can hold n's own key: while a two-children delete is between linking
// the successor's copy and unlinking the original, the original is the
// leftmost node under the copy's right child — and it is the one a
// snapshot taken before the copy was labeled must find, not yet being
// in limbo. Hence hi >= n.key, not >.
func ebrCollect(n *enode, c *ebrrq.Collector, lo, hi uint64) {
	if n == nil {
		return
	}
	if lo < n.key {
		ebrCollect(n.child[0].Load(), c, lo, hi)
	}
	c.Add(n.key, n.val, &n.itime, &n.dtime)
	if hi >= n.key {
		ebrCollect(n.child[1].Load(), c, lo, hi)
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
		n++
		walk(x.child[0].Load())
		walk(x.child[1].Load())
	}
	walk(t.root.child[0].Load())
	return n
}
