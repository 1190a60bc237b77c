package skiplist

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/history"
)

func newBundleList(kind core.Kind, threads int) (*List, *core.Registry) {
	reg := core.NewRegistry(threads)
	return New(core.New(kind), reg), reg
}

// anyList is what TestDeleteWaitsForFullyLinked drives on every construction.
type anyList interface {
	Insert(th *core.Thread, key, val uint64) bool
	Delete(th *core.Thread, key uint64) bool
	Contains(th *core.Thread, key uint64) bool
}

// Insert labels its node before it announces the tower complete, and
// Contains answers true from the label on: in between a Delete must wait
// for the insert, not report the key absent. linked is the flag of the
// one node the list holds.
func TestDeleteWaitsForFullyLinked(t *testing.T) {
	reg := core.NewRegistry(2)
	a, b := reg.MustRegister(), reg.MustRegister()
	src := core.New(core.Logical)
	bl, vl, lbl, lvl := New(src, reg), NewVcas(src, reg), NewLazyBundle(src, reg), NewLazyVcas(src, reg)
	el, err := NewEBR(src, reg, ebrrq.LockBased)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		l      anyList
		linked func() *atomic.Bool
	}{
		{"bundle", bl, func() *atomic.Bool { return &bl.head.next.at(0).Load().fullyLinked }},
		{"vcas", vl, func() *atomic.Bool { return &vl.head.l.next0.Read(src).fullyLinked }},
		{"ebr", el, func() *atomic.Bool { return &el.head.next.at(0).Load().fullyLinked }},
		{"lazy-bundle", lbl, func() *atomic.Bool { return &lbl.head.next.at(0).Load().fullyLinked }},
		{"lazy-vcas", lvl, func() *atomic.Bool { return &lvl.head.l.next0.Read(src).fullyLinked }},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.l.Insert(a, 5, 50)
			linked := c.linked()
			linked.Store(false) // back inside Insert's window: labeled, tower not announced
			if !c.l.Contains(a, 5) {
				t.Fatal("Contains(5) false for a labeled node")
			}
			done := make(chan bool, 1)
			go func() { done <- c.l.Delete(b, 5) }()
			select {
			case ok := <-done:
				t.Fatalf("Delete(5) = %v while Contains(5) is true and nothing deleted it", ok)
			case <-time.After(50 * time.Millisecond):
			}
			linked.Store(true)
			if !<-done {
				t.Fatal("Delete(5) failed once the node was fully linked")
			}
		})
	}
}

// A bundled node is one allocation of 104 bytes plus its inline levels
// (144 with five: a size class of its own), laid out by who reads it: what
// a search reads — key, tower, deletion label, and the entry that leads
// here, whose label is the insertion label — comes first and is
// contiguous, what only snapshots and updates read follows. The vCAS and
// EBR-RQ nodes are 96 bytes each, an exact size class: one field more
// moves a node to the next.
func TestSkipNodeLayout(t *testing.T) {
	var n node[blinks]
	for name, c := range map[string]struct{ got, want uintptr }{
		"bundle": {unsafe.Sizeof(n), 104 + 8*inlineLevels},
		"vcas":   {unsafe.Sizeof(node[vlinks]{}), 56 + 8*inlineLevels},
		"ebr":    {unsafe.Sizeof(node[elinks]{}), 56 + 8*inlineLevels},
	} {
		if c.got != c.want {
			t.Errorf("%s node is %d bytes with %d inline levels, want %d", name, c.got, inlineLevels, c.want)
		}
	}
	l := unsafe.Offsetof(n.l)
	offs := []uintptr{unsafe.Offsetof(n.key), unsafe.Offsetof(n.next), l + unsafe.Offsetof(n.l.dts),
		l + unsafe.Offsetof(n.l.in), l + unsafe.Offsetof(n.l.val)}
	if want := []uintptr{0, 8, 16 + 8*inlineLevels, 24 + 8*inlineLevels, 48 + 8*inlineLevels}; !reflect.DeepEqual(offs, want) {
		t.Fatalf("key, next, dts, in, val at %v, want %v", offs, want)
	}
}

// A pooled newNode must hand out what a cold pool's does whatever the free
// list gives it: a tall, labeled, linked, locked-and-released node comes back
// as a fresh one, tall or short. Only EBR-RQ pools its nodes; they keep a
// full tower, so the fresh node to compare with comes from the same list.
func TestNewNodeInResetsDirtyNode(t *testing.T) {
	for _, top := range []int{1, inlineLevels, inlineLevels + 1, maxLevel} {
		l, err := NewEBR(core.New(core.Logical), core.NewRegistry(1), ebrrq.LockBased, core.Hooks{Alloc: core.AllocPool})
		if err != nil {
			t.Fatal(err)
		}
		other := l.newNode(0, 9, 9, 1, nil)
		dirty := l.newNode(0, 7, 70, maxLevel, other)
		for lv := 0; lv < maxLevel; lv++ {
			dirty.next.at(lv).Store(other)
		}
		l.p.Label(-1, &dirty.l.itime)
		l.p.Label(-1, &dirty.l.dtime)
		dirty.fullyLinked.Store(true)
		dirty.Lock()
		dirty.Unlock()
		l.p.Free(0, dirty)

		got := l.newNode(0, 8, 80, top, nil)
		if got != dirty {
			t.Fatal("the pool did not hand the recycled node back")
		}
		if got.fullyLinked.Load() || got.l.itime.Get() != core.Pending || got.l.dtime.Get() != core.Pending {
			t.Fatalf("top %d: recycled node linked %v, labels %d/%d, want unlinked and pending",
				top, got.fullyLinked.Load(), got.l.itime.Get(), got.l.dtime.Get())
		}
		if want := l.newNode(0, 8, 80, top, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("top %d: recycled node\n %+v\nnewNode's\n %+v", top, got, want)
		}
	}
}

// reachableNodes counts the nodes the collector has to keep for the list:
// everything reachable from the head through towers, bundle chains, and
// the embedded entries' own links, which outlive the chains they sat in.
// An entry keeps the node it points to and the node it is embedded in
// (owner; a delete's standalone entry has none).
func reachableNodes(l *List, owner map[*history.Entry[*node[blinks]]]*node[blinks]) int {
	seen := map[*node[blinks]]bool{nil: true}
	work := []*node[blinks]{l.head}
	visit := func(n *node[blinks]) {
		if !seen[n] {
			seen[n] = true
			work = append(work, n)
		}
	}
	chain := func(e *history.Entry[*node[blinks]]) {
		for ; e != nil; e = e.Next() {
			visit(e.Value())
			visit(owner[e])
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for lv := 0; lv < int(n.topLevel); lv++ {
			visit(n.next.at(lv).Load())
		}
		chain(n.l.bnd.Head())
		chain(&n.l.in)
		chain(&n.l.out)
	}
	return len(seen) - 1
}

// What the list keeps reachable is bounded by what it holds, not by how
// long it ran: after 200k single-threaded updates over 1k keys with no
// query active, the dead nodes still reachable are the few that the
// bundles whose trims are still deferred lead to (535 nodes for 520
// held), and once Shape has cut them, none: every node reachable
// from the head is a live one. A trim bound older than the label of the
// entry it keeps leaves the one below it, and what that leads to (756
// nodes). A detached entry that kept its target (Chain.Truncate), or a
// victim that kept its history (Delete), lets live nodes pin chains of
// dead ones — 26,000 nodes either way — and fails this.
func TestBundleHeapBounded(t *testing.T) {
	for _, kind := range []core.Kind{core.Logical, core.TSC} {
		t.Run(kind.String(), func(t *testing.T) {
			l, reg := newBundleList(kind, 1)
			th := reg.MustRegister()
			rng := rand.New(rand.NewSource(15))
			owner := map[*history.Entry[*node[blinks]]]*node[blinks]{}
			keys := 0 // the tally of successful inserts less deletes
			for i := 0; i < 200000; i++ {
				k := uint64(rng.Intn(1000) + 1)
				if rng.Intn(2) == 1 {
					if l.Delete(th, k) {
						keys--
					}
				} else if l.Insert(th, k, uint64(i)) {
					keys++
					n := l.lookup(k)
					owner[&n.l.in], owner[&n.l.out] = n, n
				}
			}
			live := keys + 1 // and the head
			if got := reachableNodes(l, owner); got > 2*live {
				t.Fatalf("%d nodes reachable from the head of a list holding %d", got, live)
			}
			if n, _, err := l.Shape(); n != keys || err != nil {
				t.Fatalf("Shape: %d keys (want %d): %v", n, keys, err)
			}
			// reachableNodes counts the nodes besides the head.
			if got := reachableNodes(l, owner); got != live-1 {
				t.Fatalf("%d nodes reachable from the head after Shape, want the %d keys the list holds", got, live-1)
			}
		})
	}
}

func TestRandLevelDistribution(t *testing.T) {
	l, _ := newBundleList(core.Logical, 2)
	counts := make([]int, maxLevel+1)
	for i := 0; i < 100000; i++ {
		lvl := l.randLevel(0)
		if lvl < 1 || lvl > maxLevel {
			t.Fatalf("level %d out of range", lvl)
		}
		counts[lvl]++
	}
	if counts[1] < 40000 || counts[1] > 60000 {
		t.Fatalf("level-1 frequency %d not ~50%%", counts[1])
	}
	if counts[2] < 20000 || counts[2] > 30000 {
		t.Fatalf("level-2 frequency %d not ~25%%", counts[2])
	}
	lazy := NewLazyBundle(core.New(core.Logical), core.NewRegistry(1))
	for i := 0; i < 1000; i++ {
		if lvl := lazy.randLevel(0); lvl != 1 {
			t.Fatalf("a one-level list drew level %d", lvl)
		}
	}
}
