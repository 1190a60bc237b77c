// Package jiffy is a compact reimplementation of the design the paper
// analyzes in §III-A: Jiffy (Kobus, Kokociński, Wojciechowski, PPoPP
// 2022), a multiversioned ordered key-value store that uses the hardware
// timestamp counter directly and therefore must make its revision
// timestamps STRICTLY increasing — TSC alone is only monotonic, so ties
// between concurrent readings are algorithmically avoided with a wait
// loop (core.AdvanceStrict), which the paper notes "is never used in
// practice due to the clock-cycle resolution" of TSC. The tests in this
// package demonstrate both halves of that claim: uniqueness is enforced
// even under a deliberately coarse clock, and with real TSC the retry
// loop almost never fires.
//
// Supported operations, mirroring Jiffy's interface at small scale:
//
//   - Apply: a batch of puts and removes that becomes visible atomically
//     (all at one revision timestamp) — Put and Remove are one-op batches;
//   - Get: read the newest committed value;
//   - Snapshot: a long-lived consistent view supporting Get and Range,
//     valid until Close, backed by per-key revision chains that are
//     truncated only past the oldest open snapshot.
//
// Structurally this uses a sorted linked list of per-key revision chains
// rather than Jiffy's skip list; the paper's discussion targets the
// timestamping discipline, which is preserved verbatim, not the index
// shape. Keys are never structurally removed — a remove appends a
// tombstone revision, as in Jiffy.
package jiffy

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tscds/internal/core"
)

// MaxKey is the largest usable key; 0 is the head sentinel's slot.
const MaxKey = ^uint64(0) - 2

// Op is one element of a batch.
type Op struct {
	Key    uint64
	Val    uint64
	Remove bool
}

// revision is one version of a key's value. Its timestamp is Pending
// until the owning batch commits; all revisions of a batch share one
// strictly-unique timestamp.
type revision struct {
	val       uint64
	tombstone bool
	ts        atomic.Uint64
	prev      atomic.Pointer[revision]
}

type node struct {
	key  uint64
	mu   sync.Mutex
	revs atomic.Pointer[revision]
	next atomic.Pointer[node]
}

func newNode(key uint64) *node {
	n := &node{key: key}
	base := &revision{tombstone: true}
	base.ts.Store(0) // "absent since before every snapshot"
	n.revs.Store(base)
	return n
}

// Map is the mini-Jiffy store.
type Map struct {
	src  core.Source
	reg  *core.Registry
	last core.PaddedUint64 // strict-increase fence over assigned revisions
	head *node
	// retries counts ties and lost CASes (tests and the tie study).
	retries atomic.Int64
}

// New creates an empty store over the given timestamp source.
func New(src core.Source, reg *core.Registry) *Map {
	return &Map{src: src, reg: reg, head: newNode(0)}
}

// TieRetries reports how often a revision timestamp had to be retaken —
// the §III-A wait loop's real-world frequency. It counts each reading that
// tied the last assigned revision (however long core.AdvanceStrict then
// spun it out) and each CAS lost to a concurrent batch, not spin
// iterations.
func (m *Map) TieRetries() int64 { return m.retries.Load() }

// strictTS assigns the next revision timestamp: strictly greater than
// every previously assigned one, unique across concurrent batches. A tie is
// waited out by core.AdvanceStrict, whose budget bounds the wait on a
// frozen counter.
func (m *Map) strictTS() core.TS {
	for {
		last := m.last.Load()
		t := m.src.Advance()
		if t <= last {
			m.retries.Add(1) // the §III-A tie wait
			t = core.AdvanceStrict(m.src, last)
		}
		if m.last.CompareAndSwap(last, t) {
			return t
		}
		m.retries.Add(1)
	}
}

// findOrInsert returns the node for key, structurally inserting an
// absent (tombstone-based) node if needed.
func (m *Map) findOrInsert(key uint64) *node {
	for {
		pred := m.head
		cur := pred.next.Load()
		for cur != nil && cur.key < key {
			pred = cur
			cur = cur.next.Load()
		}
		if cur != nil && cur.key == key {
			return cur
		}
		pred.mu.Lock()
		if pred.next.Load() != cur {
			pred.mu.Unlock()
			continue
		}
		n := newNode(key)
		n.next.Store(cur)
		pred.next.Store(n)
		pred.mu.Unlock()
		return n
	}
}

func (m *Map) find(key uint64) *node {
	cur := m.head.next.Load()
	for cur != nil && cur.key < key {
		cur = cur.next.Load()
	}
	if cur != nil && cur.key == key {
		return cur
	}
	return nil
}

// Apply performs a batch of operations atomically: one revision
// timestamp covers them all, so every snapshot sees either none or all
// of the batch. Later ops on the same key within a batch win.
func (m *Map) Apply(th *core.Thread, ops []Op) {
	if len(ops) == 0 {
		return
	}
	// Deduplicate by key, last write wins, and order by key so node
	// locks are acquired in a global order (no deadlocks).
	byKey := make(map[uint64]Op, len(ops))
	for _, op := range ops {
		if op.Key == 0 || op.Key > MaxKey {
			continue
		}
		byKey[op.Key] = op
	}
	if len(byKey) == 0 {
		return
	}
	final := make([]Op, 0, len(byKey))
	for _, op := range byKey {
		final = append(final, op)
	}
	sort.Slice(final, func(i, j int) bool { return final[i].Key < final[j].Key })

	// Phase 1: make every node exist (nodes are never removed, so the
	// pointers stay valid). Phase 2: lock in key order and install the
	// pending revisions. Splitting the phases keeps findOrInsert's
	// predecessor locking from colliding with locks the batch holds.
	nodes := make([]*node, len(final))
	for i, op := range final {
		nodes[i] = m.findOrInsert(op.Key)
	}
	revs := make([]*revision, len(final))
	for i, op := range final {
		nodes[i].mu.Lock()
		r := &revision{val: op.Val, tombstone: op.Remove}
		r.ts.Store(uint64(core.Pending))
		r.prev.Store(nodes[i].revs.Load())
		nodes[i].revs.Store(r)
		revs[i] = r
	}
	t := m.strictTS()
	for _, r := range revs {
		r.ts.Store(uint64(t)) // commit: visible at exactly t
	}
	min := m.reg.MinActiveRQ()
	for i := len(nodes) - 1; i >= 0; i-- {
		if final[i].Key%32 == 0 {
			truncate(nodes[i], min)
		}
		nodes[i].mu.Unlock()
	}
}

// Put stores key=val (a one-op batch).
func (m *Map) Put(th *core.Thread, key, val uint64) {
	m.Apply(th, []Op{{Key: key, Val: val}})
}

// Remove deletes key (a one-op tombstone batch).
func (m *Map) Remove(th *core.Thread, key uint64) {
	m.Apply(th, []Op{{Key: key, Remove: true}})
}

// committedAt returns the newest revision with ts <= s, waiting out
// in-flight batch commits (the window between revision push and
// timestamp assignment is a few instructions).
func committedAt(n *node, s core.TS) *revision {
	r := n.revs.Load()
	for r != nil {
		ts := r.ts.Load()
		for ts == uint64(core.Pending) {
			runtime.Gosched()
			ts = r.ts.Load()
		}
		if core.TS(ts) <= s {
			return r
		}
		r = r.prev.Load()
	}
	return nil
}

// Get returns the newest committed value for key.
func (m *Map) Get(th *core.Thread, key uint64) (uint64, bool) {
	n := m.find(key)
	if n == nil {
		return 0, false
	}
	r := committedAt(n, core.MaxTS)
	if r == nil || r.tombstone {
		return 0, false
	}
	return r.val, true
}

// Contains reports whether key currently has a live value.
func (m *Map) Contains(th *core.Thread, key uint64) bool {
	_, ok := m.Get(th, key)
	return ok
}

// Snap is a long-lived consistent view. It keeps its bound announced in
// the registry so revision truncation cannot reclaim what it reads;
// Close releases it.
type Snap struct {
	m  *Map
	th *core.Thread
	s  core.TS
}

// Snapshot opens a consistent view at the current instant using the
// calling thread's handle. The thread must not open a second snapshot
// before closing the first.
func (m *Map) Snapshot(th *core.Thread) *Snap {
	th.BeginRQ()
	s := m.src.Snapshot()
	th.AnnounceRQ(s)
	return &Snap{m: m, th: th, s: s}
}

// TS returns the snapshot's bound.
func (sn *Snap) TS() core.TS { return sn.s }

// Close releases the snapshot's reclamation hold.
func (sn *Snap) Close() { sn.th.DoneRQ() }

// Get reads key as of the snapshot.
func (sn *Snap) Get(key uint64) (uint64, bool) {
	n := sn.m.find(key)
	if n == nil {
		return 0, false
	}
	r := committedAt(n, sn.s)
	if r == nil || r.tombstone {
		return 0, false
	}
	return r.val, true
}

// Range appends every live pair with lo <= key <= hi as of the snapshot.
func (sn *Snap) Range(lo, hi uint64, out []core.KV) []core.KV {
	if lo == 0 {
		lo = 1
	}
	if hi > MaxKey {
		hi = MaxKey
	}
	for cur := sn.m.head.next.Load(); cur != nil && cur.key <= hi; cur = cur.next.Load() {
		if cur.key < lo {
			continue
		}
		if r := committedAt(cur, sn.s); r != nil && !r.tombstone {
			out = append(out, core.KV{Key: cur.key, Val: r.val})
		}
	}
	return out
}

// truncate cuts a node's revision chain below the newest revision at or
// before minRQ. Caller holds the node lock.
func truncate(n *node, minRQ core.TS) {
	r := n.revs.Load()
	if r == nil || r.ts.Load() == uint64(core.Pending) {
		return
	}
	for core.TS(r.ts.Load()) > minRQ {
		next := r.prev.Load()
		if next == nil {
			return
		}
		r = next
	}
	r.prev.Store(nil)
}

// RevisionLen counts reachable revisions for key (tests).
func (m *Map) RevisionLen(key uint64) int {
	n := m.find(key)
	if n == nil {
		return 0
	}
	c := 0
	for r := n.revs.Load(); r != nil; r = r.prev.Load() {
		c++
	}
	return c
}

// Len counts currently live keys; quiescent use only.
func (m *Map) Len() int {
	c := 0
	for cur := m.head.next.Load(); cur != nil; cur = cur.next.Load() {
		if r := committedAt(cur, core.MaxTS); r != nil && !r.tombstone {
			c++
		}
	}
	return c
}
