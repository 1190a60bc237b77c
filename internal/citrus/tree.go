package citrus

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/obs/trace"
	"tscds/internal/rcu"
)

// node is a Citrus node. Key and value are immutable; marked is set under
// the node's lock and never cleared; tag (see citrus.go) is bumped under
// the lock when a child link goes back to nil. l is the technique's part:
// the two child edges and whatever else it keeps per node.
type node[L any] struct {
	key, val uint64
	mu       sync.Mutex
	marked   bool
	tag      atomic.Uint32
	l        L
}

// technique is what vCAS, Bundling and EBR-RQ differ in on this tree: the
// edges (L) and how they are read and written. Everything else — the
// search, the validations, the locking, successor relocation — is the
// tree's, below. DESIGN.md "What a technique is to a structure" lists
// which methods each technique leaves empty. The exported methods are the
// technique's lifecycle, written once in its own package: history.Technique for
// vCAS and Bundling, ebrrq.Technique for EBR-RQ.
type technique[L any] interface {
	// load follows n's dir edge as it is now.
	load(n *node[L], dir int) *node[L]
	// present reports whether the key of n, reached by a search, is in the
	// tree now, and n's value. An insert that finds n fails if so and
	// retries if not (n's delete has linearized, its unlink is imminent).
	present(n *node[L]) (uint64, bool)
	// seed points the edges of a fresh, unpublished node at left and
	// right and resets the rest of l (the node may be recycled memory).
	seed(l *L, left, right *node[L])
	// publish makes target the dir child of n, whose lock the caller
	// holds. It is the one place an edge changes and the one place an
	// update that links a node takes its timestamp, so the rule of
	// DESIGN §6 — visible to no traversal before the timestamp is read,
	// or labeled by every traversal that can see it — is met here or
	// nowhere.
	publish(th *core.Thread, n *node[L], dir int, target *node[L])
	// retire takes over n, marked under its lock, before the publish that
	// unlinks it: a technique whose snapshots cannot reach an unlinked
	// node through the edges' history labels the deletion and keeps the
	// node findable.
	retire(th *core.Thread, n *node[L])
	// collect appends the pairs of [lo, hi] visible at bound s to out, in
	// key order without duplicates. mark is when the query began, for the
	// traverse span. One call per range query, concrete inside: a walk
	// counter or collector handed through this interface by address would
	// escape to the heap.
	collect(th *core.Thread, root *node[L], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV
	// shape checks n's part as tree.Shape meets it, a history technique
	// cutting n's chains first (history.Technique.Cut); Shape, after the
	// walk, what the lifecycle holds beyond the tree.
	shape(n *node[L]) error
	Shape() error
	Enter(tid int) // Enter and Exit bracket every operation that dereferences nodes
	Exit(tid int)
	Drain() // prunes whatever retire holds back; quiescent use only
	Alloc(tid int) *node[L]
}

// collectAt is the in-order walk of [lo, hi] under n for the techniques
// whose edges keep history; at follows an edge as of the query's bound. It
// elides the equal adjacent keys a two-children delete exposes between
// linking the successor's copy and unlinking the original (the walk is
// sorted, so duplicates are adjacent). at is only called, never kept, so
// what it captures stays on the caller's stack.
func collectAt[L any](n *node[L], lo, hi uint64, base int, out []core.KV, at func(*node[L], int) *node[L]) []core.KV {
	if n == nil {
		return out
	}
	if lo < n.key {
		out = collectAt(at(n, 0), lo, hi, base, out, at)
	}
	if n.key >= lo && n.key <= hi && (len(out) == base || out[len(out)-1].Key != n.key) {
		out = append(out, core.KV{Key: n.key, Val: n.val})
	}
	if hi > n.key {
		out = collectAt(at(n, 1), lo, hi, base, out, at)
	}
	return out
}

// tree is the Citrus tree over one technique.
type tree[L any, P technique[L]] struct {
	rcu  *rcu.RCU
	tr   *trace.Recorder
	rd   *core.Reader
	p    P
	root *node[L]
}

// newTree builds the tree over p, which was built with h, reporting to h's
// recorder. The root sentinel comes from the GC, not p's pool: it is not
// pool traffic.
func newTree[L any, P technique[L]](src core.Source, reg *core.Registry, p P, rule core.Bound, h core.Hooks) *tree[L, P] {
	t := &tree[L, P]{rcu: rcu.New(reg), tr: h.Trace, p: p}
	t.root = t.initNode(new(node[L]), sentinelKey, 0, nil, nil)
	t.rd = core.NewReader(src, rule, t, h)
	return t
}

// Reader returns the tree's snapshot-read protocol.
func (t *tree[L, P]) Reader() *core.Reader { return t.rd }

// Drain eagerly prunes what deletes hold back for range queries (EBR-RQ's
// limbo lists). vCAS and Bundling history is cut by the writers' flushes
// and by Shape.
func (t *tree[L, P]) Drain() { t.p.Drain() }

// newNode acquires a node from the technique and initializes it, timed as
// tid's alloc phase: an insert's node and a delete's relocation copy.
func (t *tree[L, P]) newNode(tid int, key, val uint64, left, right *node[L]) *node[L] {
	am := t.tr.Now(tid)
	n := t.initNode(t.p.Alloc(tid), key, val, left, right)
	t.tr.Span(tid, trace.PhaseAlloc, am)
	return n
}

// initNode re-initializes all of n but the tag, which only ever grows.
// marked=false is load-bearing: a recycled marked=true would fail every
// validation against the node forever.
func (t *tree[L, P]) initNode(n *node[L], key, val uint64, left, right *node[L]) *node[L] {
	n.key, n.val, n.marked = key, val, false
	t.p.seed(&n.l, left, right)
	return n
}

// search returns the node holding key (nil if absent) and its parent; the
// caller is inside an RCU read-side section.
func (t *tree[L, P]) search(key uint64) (prev, curr *node[L]) {
	prev = t.root
	curr = t.p.load(prev, dirOf(key, prev.key))
	for curr != nil && curr.key != key {
		prev = curr
		curr = t.p.load(curr, dirOf(key, curr.key))
	}
	return prev, curr
}

// traverse is search in a read-side section of its own, returning also the
// parent's tag read inside it.
func (t *tree[L, P]) traverse(tid int, key uint64) (prev, curr *node[L], tag uint32) {
	t.rcu.ReadLock(tid)
	prev, curr = t.search(key)
	tag = prev.tag.Load()
	t.rcu.ReadUnlock(tid)
	return prev, curr, tag
}

// Contains reports whether key is present.
func (t *tree[L, P]) Contains(th *core.Thread, key uint64) bool {
	_, ok := t.Get(th, key)
	return ok
}

// Get returns the value stored at key. present runs inside the search's
// read-side section: a relocating delete labels the original successor's
// deletion only after a grace period, so a search that reached it through
// the old path reads its labels before that.
func (t *tree[L, P]) Get(th *core.Thread, key uint64) (uint64, bool) {
	t.p.Enter(th.ID)
	t.rcu.ReadLock(th.ID)
	var val uint64
	ok := false
	if _, curr := t.search(key); curr != nil {
		val, ok = t.p.present(curr)
	}
	t.rcu.ReadUnlock(th.ID)
	t.p.Exit(th.ID)
	return val, ok
}

// validateLink re-checks, under prev's lock, that the traversal result
// still describes the tree.
func (t *tree[L, P]) validateLink(prev *node[L], dir int, curr *node[L]) bool {
	return !prev.marked && t.p.load(prev, dir) == curr
}

// validateInsert is validateLink for an empty slot found with the given
// tag: still empty, and never refilled and emptied in between.
func (t *tree[L, P]) validateInsert(prev *node[L], dir int, tag uint32) bool {
	return t.validateLink(prev, dir, nil) && prev.tag.Load() == tag
}

// Insert adds key with val; it returns false if already present.
func (t *tree[L, P]) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxKey {
		return false
	}
	t.p.Enter(th.ID)
	var retries uint64
	inserted := false
	for {
		prev, curr, tag := t.traverse(th.ID, key)
		if curr != nil {
			if _, ok := t.p.present(curr); ok {
				break
			}
			retries++
			continue
		}
		dir := dirOf(key, prev.key)
		prev.mu.Lock()
		if t.validateInsert(prev, dir, tag) {
			n := t.newNode(th.ID, key, val, nil, nil)
			t.p.publish(th, prev, dir, n)
			prev.mu.Unlock()
			inserted = true
			break
		}
		prev.mu.Unlock()
		retries++
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
	t.p.Exit(th.ID)
	return inserted
}

// Delete removes key; it returns false if absent.
func (t *tree[L, P]) Delete(th *core.Thread, key uint64) bool {
	if key > MaxKey {
		return false
	}
	t.p.Enter(th.ID)
	var retries uint64
	deleted := false
	for {
		prev, curr, _ := t.traverse(th.ID, key)
		if curr == nil {
			break
		}
		dir := dirOf(key, prev.key)
		prev.mu.Lock()
		curr.mu.Lock()
		if !curr.marked && t.validateLink(prev, dir, curr) {
			left, right := t.p.load(curr, 0), t.p.load(curr, 1)
			if left != nil && right != nil {
				deleted = t.deleteTwoChildren(th, prev, dir, curr, left, right)
			} else {
				// At most one child: splice it up.
				repl := left
				if repl == nil {
					repl = right
				}
				t.replace(th, prev, dir, curr, repl)
				deleted = true
			}
		}
		curr.mu.Unlock()
		prev.mu.Unlock()
		if deleted {
			break
		}
		retries++
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
	t.p.Exit(th.ID)
	return deleted
}

// replace unlinks victim, the dir child of parent, by publishing repl in
// its place; the caller holds both locks. Marked, then handed to the
// technique, then unlinked: a deleted node is never out of a snapshot's
// reach. A link going back to nil bumps the parent's tag.
func (t *tree[L, P]) replace(th *core.Thread, parent *node[L], dir int, victim, repl *node[L]) {
	victim.marked = true
	t.p.retire(th, victim)
	if repl == nil {
		parent.tag.Add(1)
	}
	t.p.publish(th, parent, dir, repl)
}

// deleteTwoChildren performs Citrus's successor relocation. Caller holds
// prev and curr locks; returns false to signal a full retry.
func (t *tree[L, P]) deleteTwoChildren(th *core.Thread, prev *node[L], dir int, curr, left, right *node[L]) bool {
	// Find the successor (leftmost node of the right subtree) and its
	// parent while holding curr's lock, so the subtree cannot be
	// relocated away — but its internals may still change, hence the
	// validation after locking.
	succPrev, succ, sdir := curr, right, 1
	for next := t.p.load(succ, 0); next != nil; next = t.p.load(succ, 0) {
		succPrev, succ, sdir = succ, next, 0
	}
	if succPrev != curr {
		succPrev.mu.Lock()
	}
	succ.mu.Lock()
	valid := !succ.marked && !succPrev.marked &&
		t.p.load(succ, 0) == nil && t.p.load(succPrev, sdir) == succ
	if valid {
		n := t.newNode(th.ID, succ.key, succ.val, left, right)
		n.mu.Lock() // published locked so no writer touches it before we finish
		// The key is removed here; the successor's is duplicated until the
		// unlink below, its copy stamped before the original's deletion.
		t.replace(th, prev, dir, curr, n)

		// Wait out readers that may be en route to succ through curr.
		t.rcu.Synchronize()

		succParent := succPrev
		if succPrev == curr {
			succParent = n // the copy took over curr's right edge
		}
		t.replace(th, succParent, sdir, succ, t.p.load(succ, 1))
		n.mu.Unlock()
	}
	succ.mu.Unlock()
	if succPrev != curr {
		succPrev.mu.Unlock()
	}
	return valid
}

// RangeQuery appends every pair with lo <= key <= hi as of one
// linearizable snapshot.
func (t *tree[L, P]) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s, which the caller took
// by the technique's rule and announced on th (DESIGN.md, "Snapshot
// reads").
func (t *tree[L, P]) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	if hi > MaxKey {
		hi = MaxKey
	}
	t.p.Enter(th.ID)
	mark := t.tr.Now(th.ID)
	out = t.p.collect(th, t.root, lo, hi, s, mark, out)
	t.p.Exit(th.ID)
	return out
}

// Shape walks the tree, quiescent, cutting each history edge it meets: the
// keys, the deepest node and the first broken property — keys not strictly
// ascending in order (out of BST order, or twice), a marked node — or the
// technique's.
func (t *tree[L, P]) Shape() (n, depth int, err error) {
	var last uint64
	var walk func(x *node[L], d int)
	walk = func(x *node[L], d int) {
		if x == nil {
			return
		}
		if e := t.p.shape(x); e != nil {
			err = cmp.Or(err, fmt.Errorf("citrus: key %d: %w", x.key, e))
		}
		walk(t.p.load(x, 0), d+1)
		if x != t.root {
			if x.marked || n > 0 && last >= x.key {
				err = cmp.Or(err, fmt.Errorf("citrus: key %d follows key %d in order, marked %v", x.key, last, x.marked))
			}
			n, last, depth = n+1, x.key, max(depth, d)
		}
		walk(t.p.load(x, 1), d+1)
	}
	walk(t.root, 0)
	return n, depth, cmp.Or(err, t.p.Shape())
}
