package ebrrq_test

import (
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
)

// clock is a source whose reading the test sets, so labels can be given
// chosen values through the provider.
type clock struct{ now atomic.Uint64 }

func (c *clock) Advance() core.TS  { return c.now.Load() }
func (c *clock) Peek() core.TS     { return c.now.Load() }
func (c *clock) Snapshot() core.TS { return c.now.Load() }
func (c *clock) Kind() core.Kind   { return core.Monotonic }

// labeler writes chosen label values.
type labeler struct {
	src  clock
	prov *ebrrq.Provider
}

func newLabeler() *labeler {
	l := &labeler{}
	l.prov, _ = ebrrq.New(&l.src, ebrrq.LockBased)
	return l
}

// node is a stand-in structure node.
type node struct {
	key, val     uint64
	itime, dtime ebrrq.Label
}

// newTechnique is the EBR-RQ lifecycle over reg's threads and stand-in
// nodes, counting in visits every node a limbo walk reads; the test retires
// fewer nodes per thread than a prune waits for.
func newTechnique(t *testing.T, reg *core.Registry, visits *int) *ebrrq.Technique[node] {
	t.Helper()
	tq, err := ebrrq.NewTechnique(core.New(core.Logical), reg, ebrrq.LockBased,
		func(n *node) (uint64, uint64, *ebrrq.Label, *ebrrq.Label) {
			*visits++
			return n.key, n.val, &n.itime, &n.dtime
		}, nil, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return tq
}

// newNode builds a node labeled (itime, dtime); core.Pending leaves a
// label unassigned.
func (l *labeler) newNode(key uint64, itime, dtime core.TS) *node {
	n := &node{key: key, val: key * 10}
	n.itime.Init()
	n.dtime.Init()
	for _, lab := range []struct {
		l *ebrrq.Label
		v core.TS
	}{{&n.itime, itime}, {&n.dtime, dtime}} {
		if lab.v != core.Pending {
			l.src.now.Store(lab.v)
			l.prov.Label(-1, lab.l)
		}
	}
	return n
}

// The early-exit walk over ordered lists accepts exactly the nodes the
// visibility predicate accepts, at every bound, over generated
// retire/label schedules: per thread, deletion labels that never
// decrease in retire order (repeats included), a head that may still be
// Pending (retired, not yet labeled), insertion labels on either side of
// the bound.
func TestAddLimboEarlyExitMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lab := newLabeler()
	for round := 0; round < 50; round++ {
		const threads = 3
		reg := core.NewRegistry(threads)
		for i := 0; i < threads; i++ {
			reg.MustRegister()
		}
		visited := 0
		tq := newTechnique(t, reg, &visited)
		var all []*node
		maxTS := core.TS(1)
		key := uint64(0)
		for tid := 0; tid < threads; tid++ {
			d := core.TS(1 + rng.Intn(4))
			n := rng.Intn(12) // possibly an empty list
			for i := 0; i < n; i++ {
				d += core.TS(rng.Intn(3)) // 0 keeps the label equal
				dtime := d
				if i == n-1 && rng.Intn(2) == 0 {
					dtime = core.Pending // the head: retired, label not written yet
				}
				key++
				nd := lab.newNode(key, core.TS(rng.Intn(int(d)+2)), dtime)
				tq.Retire(tid, nd)
				all = append(all, nd)
				maxTS = max(maxTS, d)
			}
		}
		for s := core.TS(0); s <= maxTS+1; s++ {
			var want []core.KV
			for _, nd := range all {
				if ebrrq.VisibleAt(nd.itime.Get(), nd.dtime.Get(), s) {
					want = append(want, core.KV{Key: nd.key, Val: nd.val})
				}
			}
			c := ebrrq.NewCollector(nil, 0, ^uint64(0), s)
			visited = 0
			if got := tq.Finish(0, &c, 0); !slices.Equal(got, want) {
				t.Fatalf("round %d bound %d: early-exit walk collected %v, full predicate accepts %v", round, s, got, want)
			}
			if s == maxTS+1 && visited > 2*threads {
				t.Fatalf("round %d: a bound past every label visited %d nodes; the exit should stop each list at its first labeled node", round, visited)
			}
		}
	}
}

// An out-of-order list — a newer entry deleted before an older one — is
// what the early exit cannot take, and what Shape reports.
func TestAddLimboEarlyExitLosesOnUnorderedList(t *testing.T) {
	lab := newLabeler()
	reg := core.NewRegistry(1)
	reg.MustRegister().BeginRQ() // a reservation keeps both nodes: Shape judges their order alone
	tq := newTechnique(t, reg, new(int))
	tq.Retire(0, lab.newNode(3, 1, 100)) // older entry, later label
	tq.Retire(0, lab.newNode(7, 1, 90))  // newer entry, earlier label
	c := ebrrq.NewCollector(nil, 0, ^uint64(0), 95)
	if got := tq.Finish(0, &c, 0); len(got) != 0 {
		t.Fatalf("the early exit at bound 95 kept %v; the list's order should have hidden key 3", got)
	}
	if err := tq.Shape(); err == nil || !strings.Contains(err.Error(), "key 3") {
		t.Fatalf("Shape on a list ordered [90, 100] newest first: %v, want key 3 named", err)
	}
}

// Differential against the map-based collection the Collector replaced:
// fuzzed traversal hits (ascending, with the adjacent duplicates a
// successor copy exposes and the occasional out-of-order key), limbo
// hits that may repeat traversal keys, invisible nodes of both kinds,
// and a non-empty prefix in the buffer that must come back untouched.
func TestCollectorMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lab := newLabeler()
	const s = core.TS(50)
	// visible and invisible label pairs at bound s
	labels := [][2]core.TS{
		{10, core.Pending}, {50, 51}, {1, 60}, // visible
		{51, core.Pending}, {core.Pending, core.Pending}, {10, 50}, {10, 20}, // not
	}
	for round := 0; round < 2000; round++ {
		lo, hi := uint64(rng.Intn(20)), uint64(40+rng.Intn(40))
		prefix := make([]core.KV, rng.Intn(4))
		for i := range prefix {
			prefix[i] = core.KV{Key: uint64(rng.Intn(100)), Val: 7}
		}
		ref := map[uint64]uint64{}
		refAdd := func(n *node) {
			if n.key >= lo && n.key <= hi && ebrrq.VisibleAt(n.itime.Get(), n.dtime.Get(), s) {
				ref[n.key] = n.val
			}
		}
		c := ebrrq.NewCollector(slices.Clone(prefix), lo, hi, s)
		key := uint64(0)
		for i, n := 0, rng.Intn(30); i < n; i++ {
			switch rng.Intn(10) {
			case 0: // duplicate of the previous key
			case 1: // out of order
				key = uint64(rng.Intn(100))
			default:
				key += uint64(1 + rng.Intn(5))
			}
			l := labels[rng.Intn(len(labels))]
			nd := lab.newNode(key, l[0], l[1])
			refAdd(nd)
			c.Add(nd.key, nd.val, &nd.itime, &nd.dtime)
		}
		for i, n := 0, rng.Intn(10); i < n; i++ {
			l := labels[rng.Intn(len(labels))]
			nd := lab.newNode(uint64(rng.Intn(100)), l[0], l[1])
			refAdd(nd)
			c.AddLimbo(nd.key, nd.val, &nd.itime, &nd.dtime)
		}
		got := c.Finish()
		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("round %d: caller's prefix changed: %v -> %v", round, prefix, got[:len(prefix)])
		}
		var want []core.KV
		for k, v := range ref {
			want = append(want, core.KV{Key: k, Val: v})
		}
		core.SortKVs(want)
		if !slices.Equal(got[len(prefix):], want) {
			t.Fatalf("round %d [%d,%d]: collector %v, map reference %v", round, lo, hi, got[len(prefix):], want)
		}
	}
}
