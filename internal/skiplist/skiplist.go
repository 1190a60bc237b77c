// Package skiplist is the lock-based lazy skip list of Herlihy, Lev,
// Luchangco and Shavit (SIROCCO 2007) with linearizable range queries and,
// as its one-level instance, the lazy list of Heller et al. (OPODIS 2005):
// the paper's Figure 5 and the combinations it built but omitted because
// TSC showed no gain (§III; the lazy list's O(n) walk hides the timestamp).
//
// The algorithm is written once, in this file, over a technique (bundle.go,
// vcas.go, ebr.go): what the range-query augmentations differ in — the
// level-0 link, the per-node labels, how an update stamps them and how a
// snapshot walks them. The upper levels are plain pointers that only
// position a search; no technique sees them. New, NewVcas and NewEBR build
// skip lists of maxLevel levels, NewLazyBundle and NewLazyVcas one-level
// lists.
package skiplist

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/obs/trace"
)

// maxLevel supports ~2^20 keys with p = 1/2.
const maxLevel = 20

// inlineLevels is how much of a tower lives in the node; one node in
// 2^inlineLevels is taller and owns an overflow array. With 5 a bundled
// node is 144 bytes, a size class of its own; EXPERIMENTS.md has the ledger
// for 3 to 6.
const inlineLevels = 5

// MaxKey is the largest insertable key. The head holds no key: every
// search starts at it or its successor and never compares its key.
const MaxKey = ^uint64(0) - 2

// tower is a node's links, one per level it occupies: the low
// inlineLevels in the node itself, the rest in an overflow array that only
// a taller node owns. Level 0 is the technique's (the vCAS list keeps its
// own and leaves this one nil).
type tower[T any] struct {
	low  [inlineLevels]atomic.Pointer[T]
	more *[maxLevel - inlineLevels]atomic.Pointer[T]
}

// at is the link at level l, below the height the tower was reset to.
func (t *tower[T]) at(l int) *atomic.Pointer[T] {
	if l < inlineLevels {
		return &t.low[l]
	}
	return &t.more[l-inlineLevels]
}

// reset empties the tower of an unpublished node for top levels; an
// overflow array left by the node's previous life is reused when top needs
// one and dropped when not.
func (t *tower[T]) reset(top int) {
	t.low = [inlineLevels]atomic.Pointer[T]{}
	switch {
	case top <= inlineLevels:
		t.more = nil
	case t.more == nil:
		t.more = new([maxLevel - inlineLevels]atomic.Pointer[T])
	default:
		*t.more = [maxLevel - inlineLevels]atomic.Pointer[T]{}
	}
}

// node is a list node: the key and the tower, all an upper-level search
// reads; l, the technique's part (value, labels, a level-0 link kept apart),
// laid out by the technique; the lock and the flags of an update.
type node[L any] struct {
	key  uint64
	next tower[node[L]]
	l    L
	sync.Mutex
	fullyLinked atomic.Bool
	topLevel    int32 // number of levels this node occupies (1..levels)
}

// technique is what Bundling, vCAS and EBR-RQ differ in on this list;
// the search, the validations, the locking, the upper levels and the
// range-query frame are the list's (DESIGN.md "What a technique is to a
// structure"). A method called through the type parameter is a dictionary
// call, never inlined: a search makes one per level-0 hop and none above.
// The exported methods are the technique's lifecycle, written once in its
// own package: history.Technique for vCAS and Bundling, ebrrq.Technique for
// EBR-RQ.
type technique[L any] interface {
	// load follows n's level-0 link as it is now.
	load(n *node[L]) *node[L]
	// alive reports whether n may be linked to or unlinked from: neither
	// deleted nor claimed by a deleter.
	alive(n *node[L]) bool
	// present reports whether n's insert has linearized and its delete has
	// not — membership in the newest snapshot — and n's value. An insert
	// that finds n fails if so and retries if not (n's insert is still
	// being labeled, or its delete has linearized and the unlink is near).
	present(n *node[L]) (uint64, bool)
	// seed resets the technique's part of a fresh, unpublished node — it
	// may be recycled memory — to val and a level-0 link to succ.
	seed(n *node[L], val uint64, succ *node[L])
	// link makes n, seeded with a link to pred's level-0 successor, pred's
	// successor instead, under pred's lock: the one place an insert
	// publishes at level 0 and takes its timestamp (DESIGN §6's rule is met
	// here or nowhere).
	link(th *core.Thread, pred, n *node[L])
	// claim takes the locked, alive victim over for its delete; unlink
	// removes it from level 0 after pred, whose lock the caller holds,
	// when its upper levels are gone. Between them they take the delete's
	// timestamp.
	claim(th *core.Thread, victim *node[L])
	unlink(th *core.Thread, pred, victim *node[L])
	// collect appends the pairs of [lo, hi] visible at bound s to out in
	// key order, starting after pred, a node below lo reached through the
	// raw index (head if none). mark is when the query began.
	collect(th *core.Thread, head, pred *node[L], lo, hi uint64, s core.TS, mark uint64, out []core.KV) []core.KV
	// shape checks n's part as list.Shape meets it; Shape, after the
	// walk, what the lifecycle holds beyond the list.
	shape(n *node[L]) error
	Shape() error
	Enter(tid int) // Enter and Exit bracket every operation that dereferences nodes
	Exit(tid int)
	Drain() // prunes what deletes hold back; quiescent use only
	Alloc(tid int) *node[L]
	Recycles() bool // Alloc may return recycled memory
}

// list is the lazy skip list over one technique, levels high.
type list[L any, P technique[L]] struct {
	tr     *trace.Recorder
	rd     *core.Reader
	p      P
	head   *node[L]
	levels int                 // maxLevel, or 1 for the lazy list
	keep   int                 // height a pooled tower is reset to at least
	rngs   []core.PaddedUint64 // per-thread xorshift state for level draws
}

// newList builds the list over p, which was built with h, and reports to
// h's recorder. A recycled node keeps a full tower, so a short node
// recycled into a tall one allocates nothing. The head comes from the GC,
// not p's pool: it is not pool traffic.
func newList[L any, P technique[L]](src core.Source, reg *core.Registry, p P, levels int, rule core.Bound, h core.Hooks) *list[L, P] {
	t := &list[L, P]{tr: h.Trace, p: p, levels: levels, rngs: make([]core.PaddedUint64, reg.Cap())}
	if p.Recycles() {
		t.keep = maxLevel
	}
	t.head = t.initNode(new(node[L]), 0, 0, levels, nil)
	t.head.fullyLinked.Store(true)
	t.rd = core.NewReader(src, rule, t, h)
	return t
}

// Reader returns the list's snapshot-read protocol.
func (t *list[L, P]) Reader() *core.Reader { return t.rd }

// Drain eagerly prunes what deletes hold back for range queries (EBR-RQ's
// limbo lists) and the history trims vCAS and Bundling defer. Quiescent
// use only, like Len.
func (t *list[L, P]) Drain() { t.p.Drain() }

// newNode acquires a node from the technique and initializes it, timed as
// tid's alloc phase.
func (t *list[L, P]) newNode(tid int, key, val uint64, top int, succ *node[L]) *node[L] {
	am := t.tr.Now(tid)
	n := t.initNode(t.p.Alloc(tid), key, val, top, succ)
	t.tr.Span(tid, trace.PhaseAlloc, am)
	return n
}

// initNode re-initializes all of n. fullyLinked=false is load-bearing on
// recycled memory: Delete refuses to claim a node whose insert has not
// linked it at every level.
func (t *list[L, P]) initNode(n *node[L], key, val uint64, top int, succ *node[L]) *node[L] {
	*n = node[L]{key: key, topLevel: int32(top), next: tower[node[L]]{more: n.next.more}}
	n.next.reset(max(top, t.keep))
	t.p.seed(n, val, succ)
	return n
}

// randLevel draws a tower height from tid's xorshift state.
func (t *list[L, P]) randLevel(tid int) int {
	x := t.rngs[tid].Load()
	if x == 0 {
		x = uint64(tid)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rngs[tid].Store(x)
	lvl := 1
	for x&1 == 1 && lvl < t.levels {
		lvl++
		x >>= 1
	}
	return lvl
}

// find fills preds/succs per level and returns the highest level at
// which key was found (-1 if absent). Head is below every key.
func (t *list[L, P]) find(key uint64, preds, succs *[maxLevel]*node[L]) int {
	lFound := -1
	pred := t.head
	for l := t.levels - 1; l >= 1; l-- {
		cur := pred.next.at(l).Load()
		for cur != nil && cur.key < key {
			pred = cur
			cur = cur.next.at(l).Load()
		}
		if lFound == -1 && cur != nil && cur.key == key {
			lFound = l
		}
		preds[l], succs[l] = pred, cur
	}
	cur := t.p.load(pred)
	for cur != nil && cur.key < key {
		pred = cur
		cur = t.p.load(cur)
	}
	if lFound == -1 && cur != nil && cur.key == key {
		lFound = 0
	}
	preds[0], succs[0] = pred, cur
	return lFound
}

// lookup returns the node holding key, linearized or not, or nil. Unlike
// find it stops at the level it meets the key on.
func (t *list[L, P]) lookup(key uint64) *node[L] {
	pred := t.head
	for l := t.levels - 1; l >= 1; l-- {
		cur := pred.next.at(l).Load()
		for cur != nil && cur.key < key {
			pred = cur
			cur = cur.next.at(l).Load()
		}
		if cur != nil && cur.key == key {
			return cur
		}
	}
	cur := t.p.load(pred)
	for cur != nil && cur.key < key {
		cur = t.p.load(cur)
	}
	if cur != nil && cur.key == key {
		return cur
	}
	return nil
}

// next follows n's link at level l now.
func (t *list[L, P]) next(n *node[L], l int) *node[L] {
	if l == 0 {
		return t.p.load(n)
	}
	return n.next.at(l).Load()
}

// Contains reports whether key is present.
func (t *list[L, P]) Contains(th *core.Thread, key uint64) bool {
	_, ok := t.Get(th, key)
	return ok
}

// Get returns the value stored at key.
func (t *list[L, P]) Get(th *core.Thread, key uint64) (uint64, bool) {
	t.p.Enter(th.ID)
	var val uint64
	ok := false
	if n := t.lookup(key); n != nil {
		val, ok = t.p.present(n)
	}
	t.p.Exit(th.ID)
	return val, ok
}

// lockPreds locks the distinct predecessors of levels [0, top) into the
// caller's locked array and returns how many it took; unlockPreds releases
// them. Both arrays stay on the caller's stack (an unlock closure would not).
func lockPreds[L any](preds, locked *[maxLevel]*node[L], top int) int {
	n := 0
	for l := 0; l < top; l++ {
		if n == 0 || preds[l] != locked[n-1] {
			preds[l].Lock()
			locked[n] = preds[l]
			n++
		}
	}
	return n
}

func unlockPreds[L any](locked *[maxLevel]*node[L], n int) {
	for i := 0; i < n; i++ {
		locked[i].Unlock()
	}
}

// Insert adds key with val; it returns false if already present.
func (t *list[L, P]) Insert(th *core.Thread, key, val uint64) bool {
	if key > MaxKey {
		return false
	}
	t.p.Enter(th.ID)
	top := t.randLevel(th.ID)
	var preds, succs, locked [maxLevel]*node[L]
	var retries uint64
	inserted := false
	for {
		if lFound := t.find(key, &preds, &succs); lFound != -1 {
			f := succs[lFound]
			if _, ok := t.p.present(f); !ok {
				retries++
				runtime.Gosched() // the other update holds locks this one needs
				continue
			}
			for !f.fullyLinked.Load() {
				runtime.Gosched()
			}
			break
		}
		nl := lockPreds(&preds, &locked, top)
		valid := true
		for l := 0; l < top && valid; l++ {
			pred, succ := preds[l], succs[l]
			valid = t.p.alive(pred) && t.next(pred, l) == succ && (succ == nil || t.p.alive(succ))
		}
		if !valid {
			unlockPreds(&locked, nl)
			retries++
			continue
		}
		n := t.newNode(th.ID, key, val, top, succs[0])
		for l := 1; l < top; l++ {
			n.next.at(l).Store(succs[l])
		}
		t.p.link(th, preds[0], n)
		for l := 1; l < top; l++ {
			preds[l].next.at(l).Store(n)
		}
		n.fullyLinked.Store(true)
		unlockPreds(&locked, nl)
		inserted = true
		break
	}
	t.tr.Count(th.ID, trace.PhaseRetry, retries)
	t.p.Exit(th.ID)
	return inserted
}

// Delete removes key; it returns false if absent.
func (t *list[L, P]) Delete(th *core.Thread, key uint64) bool {
	t.p.Enter(th.ID)
	var preds, succs, locked [maxLevel]*node[L]
	victim := t.claimVictim(th, key, &preds, &succs)
	if victim != nil {
		top := int(victim.topLevel)
		var retries uint64
		for {
			nl := lockPreds(&preds, &locked, top)
			valid := true
			for l := 0; l < top && valid; l++ {
				valid = t.p.alive(preds[l]) && t.next(preds[l], l) == victim
			}
			if valid {
				for l := top - 1; l >= 1; l-- {
					preds[l].next.at(l).Store(victim.next.at(l).Load())
				}
				t.p.unlink(th, preds[0], victim)
				unlockPreds(&locked, nl)
				break
			}
			unlockPreds(&locked, nl)
			retries++
			t.find(key, &preds, &succs)
		}
		victim.Unlock()
		t.tr.Count(th.ID, trace.PhaseRetry, retries)
	}
	t.p.Exit(th.ID)
	return victim != nil
}

// claimVictim finds key's node fully linked at its top level, locks it and
// claims it for this delete; it returns the node locked, or nil if the key
// is absent or another delete claimed it first.
func (t *list[L, P]) claimVictim(th *core.Thread, key uint64, preds, succs *[maxLevel]*node[L]) *node[L] {
	for {
		lFound := t.find(key, preds, succs)
		if lFound == -1 {
			return nil
		}
		victim := succs[lFound]
		// Contains answers true from the moment the insert is labeled, so
		// an insert still linking its tower is waited out, not reported
		// absent (it holds no lock this thread needs).
		for !victim.fullyLinked.Load() {
			runtime.Gosched()
		}
		if int(victim.topLevel) != lFound+1 {
			// Found below its top: the search overlapped the tower going up,
			// or another delete taking it down (then the key soon is absent).
			runtime.Gosched()
			continue
		}
		victim.Lock()
		if !t.p.alive(victim) {
			victim.Unlock()
			return nil
		}
		t.p.claim(th, victim)
		return victim
	}
}

// RangeQuery appends every pair with lo <= key <= hi as of one
// linearizable snapshot.
func (t *list[L, P]) RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV {
	return t.rd.Live(th, lo, hi, out)
}

// RangeQueryAt collects [lo, hi] as of the bound s, which the caller took
// by the technique's rule and announced on th (DESIGN.md, "Snapshot
// reads"). The untimestamped upper levels position the query below lo, the
// technique's collect walks from there (never collecting the head).
func (t *list[L, P]) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	t.p.Enter(th.ID)
	mark := t.tr.Now(th.ID)
	pred := t.head
	for l := t.levels - 1; l >= 1; l-- {
		cur := pred.next.at(l).Load()
		for cur != nil && cur.key < lo {
			pred = cur
			cur = cur.next.at(l).Load()
		}
	}
	out = t.p.collect(th, t.head, pred, lo, hi, s, mark, out)
	t.p.Exit(th.ID)
	return out
}

// Shape walks the list as Drain left it, quiescent: the keys, the levels in
// use and the first broken property — a node not fully linked, or a level
// out of key order, not a sublist of the one below (SNIPPETS.md Snippet 1)
// or not holding exactly the nodes whose towers reach it — or the
// technique's.
func (t *list[L, P]) Shape() (n, depth int, err error) {
	var towers [maxLevel]int // the nodes on level 0 whose towers reach each level
	for cur := t.head; cur != nil; cur = t.p.load(cur) {
		if !cur.fullyLinked.Load() {
			err = cmp.Or(err, fmt.Errorf("skiplist: key %d is reachable but not fully linked", cur.key))
		}
		if e := t.p.shape(cur); e != nil {
			err = cmp.Or(err, fmt.Errorf("skiplist: key %d: %w", cur.key, e))
		}
		for l := range min(int(cur.topLevel), t.levels) {
			towers[l]++
		}
	}
	for l := range t.levels {
		towers[l]-- // the head
		got, below := 0, t.head
		for prev, cur := t.head, t.next(t.head, l); cur != nil; prev, cur = cur, t.next(cur, l) {
			for l > 0 && below != nil && below != cur {
				below = t.next(below, l-1)
			}
			if prev != t.head && prev.key >= cur.key || below == nil || int(cur.topLevel) <= l {
				err = cmp.Or(err, fmt.Errorf("skiplist: level %d holds key %d after key %d, off the level below or above its tower", l, cur.key, prev.key))
			}
			got++
		}
		if got != towers[l] {
			err = cmp.Or(err, fmt.Errorf("skiplist: level %d holds %d nodes, and %d towers reach it", l, got, towers[l]))
		}
		if got > 0 {
			depth = l + 1
		}
	}
	return towers[0], depth, cmp.Or(err, t.p.Shape())
}
