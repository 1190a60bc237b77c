package history

import (
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
	src := core.NewLogical()
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

// What Truncate clears in the tail it detaches is the rule's. Under
// Bundling every detached entry loses its link and its target — an entry
// embedded in a live node would otherwise pin the history below it — and
// keeps its label, which may be the embedding node's own. Under vCAS a
// detached version keeps its value: a lock-free reader that loaded it as
// the head may still read it. Under both, entries at and above the cut are
// untouched, and a read at any bound at or above the cut answers as
// before. The chain mixes caller-owned and allocated entries, as the
// structures' chains do.
func TestTruncateReleasesDetachedTail(t *testing.T) {
	for _, d := range rules() {
		t.Run(d.name, func(t *testing.T) {
			c := new(Chain[*node])
			first := new(Entry[*node])
			c.InitWith(first, &node{0})
			entries := []*Entry[*node]{first}
			labels := []core.TS{0}
			wants := []*node{first.Value()}
			for i := uint64(1); i <= 12; i++ {
				var e *Entry[*node]
				if i%2 == 1 {
					e = new(Entry[*node])
				}
				n := &node{i}
				d.put(c, n, core.TS(2*i), e)
				entries, labels, wants = append(entries, c.Head()), append(labels, core.TS(2*i)), append(wants, n)
			}
			const cut = 8 // entries[cut] is the newest labeled at or before the bound
			if dropped := c.Truncate(labels[cut]+1, d.r); dropped != cut {
				t.Fatalf("Truncate dropped %d entries, want %d", dropped, cut)
			}
			for i, e := range entries {
				if e.TS() != labels[i] {
					t.Fatalf("entry %d: label %d became %d", i, labels[i], e.TS())
				}
				want, next := wants[i], (*Entry[*node])(nil)
				if i > 0 && i < cut {
					next = entries[i-1]
				}
				if i < cut && d.r == Bundling {
					want, next = nil, nil
				}
				if e.Value() != want || (i < cut && e.Next() != next) {
					t.Fatalf("entry %d (cut at %d): target %v next %v, want %v and %v", i, cut, e.Value(), e.Next(), want, next)
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
