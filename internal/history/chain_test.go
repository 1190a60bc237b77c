package history

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tscds/internal/core"
)

type node struct{ key uint64 }

// rule drives a chain through one labeling rule: put appends target n
// labeled exactly ts (increasing from call to call), into the caller-owned
// entry e if it is not nil; at reads the target at bound s with the rule's
// own walk.
type rule struct {
	name string
	r    Rule
	put  func(c *Chain[*node], n *node, ts core.TS, e *Entry[*node])
	at   func(c *Chain[*node], s core.TS) (*node, bool)
}

// rules returns a fresh driver per rule. vCAS labels a write with the
// source's Peek, so its driver advances a logical source to ts first.
func rules() []rule {
	src := core.New(core.Logical)
	return []rule{
		{"vcas", VCAS,
			func(c *Chain[*node], n *node, ts core.TS, e *Entry[*node]) {
				for src.Peek() < ts {
					src.Advance()
				}
				if e == nil {
					c.Write(src, n)
					return
				}
				e.Arm(n)
				c.CompareAndSwapVersion(src, c.Read(src), e)
			},
			func(c *Chain[*node], s core.TS) (*node, bool) {
				n, ok, _ := c.ReadAt(src, s)
				return n, ok
			}},
		{"bundle", Bundling,
			func(c *Chain[*node], n *node, ts core.TS, e *Entry[*node]) {
				if e == nil {
					e = c.Prepare(n)
				} else {
					c.PrepareWith(e, n)
				}
				c.Finalize(e, ts)
			},
			func(c *Chain[*node], s core.TS) (*node, bool) {
				n, ok, _, _ := c.WaitAt(s)
				return n, ok
			}},
	}
}

// chainAt returns a chain initialized to a node labeled 0 with one more
// node put at each of labels, and the nodes in label order.
func chainAt(t *testing.T, d rule, labels ...core.TS) (*Chain[*node], []*node) {
	c := new(Chain[*node])
	ns := []*node{{0}}
	c.Init(ns[0])
	for _, ts := range labels {
		n := &node{ts}
		d.put(c, n, ts, nil)
		if got := c.Head().TS(); got != ts {
			t.Fatalf("setup: head labeled %d, want %d", got, ts)
		}
		ns = append(ns, n)
	}
	return c, ns
}

// entryChain returns a chain whose entry i is labeled 2i, initialized with
// a caller-owned entry and extended with n-1 more, every other one
// caller-owned, as the structures' chains mix them, and its entries and
// targets, oldest first.
func entryChain(d rule, n int) (*Chain[*node], []*Entry[*node], []*node) {
	c := new(Chain[*node])
	first := new(Entry[*node])
	c.InitWith(first, &node{0})
	es, targets := []*Entry[*node]{first}, []*node{first.Value()}
	for i := uint64(1); i < uint64(n); i++ {
		var e *Entry[*node]
		if i%2 == 1 {
			e = new(Entry[*node])
		}
		t := &node{i}
		d.put(c, t, core.TS(2*i), e)
		es, targets = append(es, c.Head()), append(targets, t)
	}
	return c, es, targets
}

// Boundary tie-break regression: a hardware Source.Snapshot can return a
// value EQUAL to a concurrent label (unlike LogicalSource, whose
// pre-increment makes later labels strictly newer). The codebase's pinned
// rule, asserted here for both walks so no future edit flips an
// inequality: the newest entry labeled ts <= s — including ts == s
// exactly — is the link's target at bound s; a tie linearizes the update
// before the query regardless of which source produced the timestamps.
func TestBoundaryTieBreak(t *testing.T) {
	for _, d := range rules() {
		t.Run(d.name, func(t *testing.T) {
			c, n := chainAt(t, d, 5, 10)
			for _, tc := range []struct {
				s    core.TS
				want *node
			}{
				{0, n[0]}, // the init label ties the bound
				{4, n[0]},
				{5, n[1]}, // bound ties the label: entry included
				{6, n[1]},
				{9, n[1]},
				{10, n[2]}, // ties again at the newest entry
				{11, n[2]},
			} {
				if got, ok := d.at(c, tc.s); !ok || got != tc.want {
					t.Errorf("at(%d) = (%v,%v), want %v", tc.s, got, ok, tc.want)
				}
			}
		})
	}
}

// TestHistoricalBounds pins both walks at arbitrary PAST bounds, the
// contract time-travel reads are built on: the newest entry labeled <= s
// wins (ties included), and once truncation has dropped the entries a
// bound would need, the walk reports a miss rather than a younger target.
// That miss is indistinguishable from "key never written", which is why
// the facade validates ts against the retention watermark
// (core.ReadBound.CheckAt) BEFORE trusting the walk.
func TestHistoricalBounds(t *testing.T) {
	for _, d := range rules() {
		t.Run(d.name, func(t *testing.T) {
			c, n := chainAt(t, d, 3, 7)
			check := func(when string, s core.TS, want *node) {
				t.Helper()
				if got, ok := d.at(c, s); got != want || ok != (want != nil) {
					t.Errorf("%s: at(%d) = (%v,%v), want %v", when, s, got, ok, want)
				}
			}
			for s, want := range map[core.TS]*node{0: n[0], 1: n[0], 2: n[0], 3: n[1], 4: n[1], 6: n[1], 7: n[2], 9: n[2]} {
				check("before the cut", s, want)
			}
			if dropped := c.Truncate(3, d.r); dropped != 1 {
				t.Fatalf("Truncate(3) dropped %d entries, want 1", dropped)
			}
			for s, want := range map[core.TS]*node{2: nil, 3: n[1], 6: n[1], 7: n[2], 9: n[2]} {
				check("after Truncate(3)", s, want)
			}
		})
	}
}

// Truncate must keep the entry labeled exactly at the prune bound — it is
// the target a snapshot at that bound follows.
func TestTruncateKeepsTiedEntry(t *testing.T) {
	for _, d := range rules() {
		t.Run(d.name, func(t *testing.T) {
			c, n := chainAt(t, d, 5, 10)
			for i, bound := range []core.TS{5, 10} {
				if dropped := c.Truncate(bound, d.r); dropped != 1 {
					t.Fatalf("Truncate(%d) dropped %d entries, want 1", bound, dropped)
				}
				if got, ok := d.at(c, bound); !ok || got != n[i+1] {
					t.Fatalf("after Truncate(%d), at(%d) = (%v,%v), want the tied entry %v", bound, bound, got, ok, n[i+1])
				}
				if l := c.Len(); l != 2-i {
					t.Fatalf("after Truncate(%d) the chain holds %d entries, want %d", bound, l, 2-i)
				}
			}
		})
	}
}

// With no range query active the prune bound is core.Pending: a trim
// keeps the head alone.
func TestTruncateNoActiveRQKeepsHeadOnly(t *testing.T) {
	for _, d := range rules() {
		t.Run(d.name, func(t *testing.T) {
			c, n := chainAt(t, d, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
			if dropped := c.Truncate(core.Pending, d.r); dropped != 10 || c.Len() != 1 {
				t.Fatalf("full truncate dropped %d and left %d entries, want 10 and 1", dropped, c.Len())
			}
			if got := c.Head().Value(); got != n[10] {
				t.Fatalf("head holds %v, want %v", got, n[10])
			}
		})
	}
}

// Under both rules every detached entry loses its link, claimed by the
// one Truncate that detached it, and keeps its label, which may be the
// embedding node's own. What else it clears is the rule's. Under Bundling
// a detached entry loses its target — an entry embedded in a live node
// would otherwise keep what it recorded reachable. Under vCAS a detached
// version keeps its value: a lock-free reader that loaded it as the head
// may still read it. Under both, entries at and above the cut are
// untouched, and a read at any bound at or above the cut answers as
// before. The chain mixes caller-owned and allocated entries, as the
// structures' chains do.
func TestTruncateReleasesDetachedTail(t *testing.T) {
	for _, d := range rules() {
		t.Run(d.name, func(t *testing.T) {
			c, entries, wants := entryChain(d, 13)
			labels := make([]core.TS, len(entries))
			for i := range labels {
				labels[i] = core.TS(2 * i)
			}
			const cut = 8 // entries[cut] is the newest labeled at or before the bound
			if dropped := c.Truncate(labels[cut]+1, d.r); dropped != cut {
				t.Fatalf("Truncate dropped %d entries, want %d", dropped, cut)
			}
			for i, e := range entries {
				if e.TS() != labels[i] {
					t.Fatalf("entry %d: label %d became %d", i, labels[i], e.TS())
				}
				want := wants[i]
				if i < cut && d.r == Bundling {
					want = nil
				}
				if e.Value() != want || (i < cut && e.Next() != nil) {
					t.Fatalf("entry %d (cut at %d): target %v next %v, want %v and no link", i, cut, e.Value(), e.Next(), want)
				}
			}
			if entries[cut].Next() != nil || c.Len() != len(entries)-cut {
				t.Fatalf("chain holds %d entries below a cut entry with next %v", c.Len(), entries[cut].Next())
			}
			for i := cut; i < len(entries); i++ {
				for _, s := range []core.TS{labels[i], labels[i] + 1} {
					if got, ok := d.at(c, s); !ok || got != wants[i] {
						t.Fatalf("at(%d) after the cut = (%v, %v), want %v", s, got, ok, wants[i])
					}
				}
			}
		})
	}
}

// Trims are deferred, so two threads may cut one chain at once at
// different bounds, the lower one inside the tail the higher one detaches.
// Each detached entry must be claimed by exactly one of them: detached and
// cleared once (a second clear of a Bundling target is a race under
// -race), counted once (the two counts sum to what was detached), while
// everything at and above the higher cut stays as it was. The interleaving
// that would count twice is first made deterministic: the lower cut's walk
// has passed the higher cut point when that cut claims and counts the
// tail, and only then reaches its own cut point inside it.
func TestConcurrentTruncate(t *testing.T) {
	const entries, rounds = 1024, 200
	for _, d := range rules() {
		c, es, _ := entryChain(d, 64)
		lo, hi := 3, 40
		walk := new(Chain[*node]) // where the lower cut's walk stands
		walk.head.Store(es[hi-1])
		if got := c.Truncate(core.TS(2*hi+1), d.r); got != hi {
			t.Fatalf("%s: the higher cut dropped %d entries, want %d", d.name, got, hi)
		}
		if got := walk.Truncate(core.TS(2*lo+1), d.r); got != 0 {
			t.Fatalf("%s: a cut inside a detached tail dropped %d entries again", d.name, got)
		}
	}
	for round := 0; round < rounds; round++ {
		for _, d := range rules() {
			c, es, targets := entryChain(d, entries)
			// A bound of 2i+1 cuts below es[i], detaching i entries.
			lo := 1 + round%(entries/2)
			hi := lo + 1 + (round*7)%(entries/2-1)
			var counts [2]int
			var wg sync.WaitGroup
			var ready atomic.Int32
			for g, at := range []int{lo, hi} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ready.Add(1); ready.Load() < 2; {
						runtime.Gosched()
					}
					counts[g] = c.Truncate(core.TS(2*at+1), d.r)
				}()
			}
			wg.Wait()
			if got := counts[0] + counts[1]; got != hi {
				t.Fatalf("%s round %d: cuts at %d and %d dropped %d and %d, want %d in all", d.name, round, lo, hi, counts[0], counts[1], hi)
			}
			for i, e := range es {
				want, next := targets[i], (*Entry[*node])(nil)
				switch {
				case i < hi && d.r == Bundling:
					want = nil
				case i > hi:
					next = es[i-1]
				}
				if e.TS() != core.TS(2*i) || e.Value() != want || e.Next() != next {
					t.Fatalf("%s round %d: entry %d (cuts at %d and %d): label %d target %v next %v, want %d, %v and %v",
						d.name, round, i, lo, hi, e.TS(), e.Value(), e.Next(), 2*i, want, next)
				}
			}
			if c.Len() != entries-hi {
				t.Fatalf("%s round %d: chain holds %d entries, want %d", d.name, round, c.Len(), entries-hi)
			}
		}
	}
}
