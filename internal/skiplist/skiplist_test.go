package skiplist

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/ebrrq/limbotest"
	"tscds/internal/history"
)

func newBundleList(kind core.Kind, threads int) (*List, *core.Registry) {
	reg := core.NewRegistry(threads)
	return New(core.New(kind), reg), reg
}

func TestEmpty(t *testing.T) {
	for name, mk := range allVariants(t) {
		t.Run(name, func(t *testing.T) {
			l, reg := mk(core.Logical, 1)
			th := reg.MustRegister()
			if _, ok := l.Get(th, 5); ok || l.Contains(th, 5) || l.Delete(th, 5) || l.Len() != 0 {
				t.Fatal("empty list misbehaved")
			}
			if got := l.RangeQuery(th, 1, MaxKey, nil); len(got) != 0 {
				t.Fatalf("empty range = %v", got)
			}
		})
	}
}

func TestBasicOps(t *testing.T) {
	for name, mk := range allVariants(t) {
		t.Run(name, func(t *testing.T) {
			l, reg := mk(core.TSC, 1)
			th := reg.MustRegister()
			if !l.Insert(th, 5, 50) || l.Insert(th, 5, 51) {
				t.Fatal("insert semantics")
			}
			if v, ok := l.Get(th, 5); !ok || v != 50 {
				t.Fatalf("Get = (%d,%v)", v, ok)
			}
			if !l.Delete(th, 5) || l.Contains(th, 5) || l.Delete(th, 5) || l.Len() != 0 {
				t.Fatal("delete semantics")
			}
			if _, ok := l.Get(th, 5); ok {
				t.Fatal("Get after delete")
			}
		})
	}
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

// The head holds no key, so key 0 is a key like any other: beside the
// head, before key 1, in every snapshot that reaches it.
func TestKeyZeroRoundTrip(t *testing.T) {
	for name, mk := range allVariants(t) {
		t.Run(name, func(t *testing.T) {
			l, reg := mk(core.Logical, 1)
			th := reg.MustRegister()
			if !l.Insert(th, 0, 7) || !l.Insert(th, 1, 8) || l.Insert(th, 0, 9) {
				t.Fatal("key 0 insert semantics")
			}
			if v, ok := l.Get(th, 0); !ok || v != 7 {
				t.Fatalf("Get(0) = (%d,%v)", v, ok)
			}
			if got := l.RangeQuery(th, 0, 1, nil); len(got) != 2 || got[0] != (core.KV{Key: 0, Val: 7}) {
				t.Fatalf("RangeQuery(0, 1) = %v", got)
			}
			if !l.Delete(th, 0) || l.Contains(th, 0) || l.Delete(th, 0) {
				t.Fatal("key 0 delete semantics")
			}
			if got := l.RangeQuery(th, 0, MaxKey, nil); len(got) != 1 || got[0].Key != 1 {
				t.Fatalf("range after Delete(0) = %v", got)
			}
		})
	}
}

func TestSequentialAgainstModel(t *testing.T) {
	l, reg := newBundleList(core.TSC, 1)
	th := reg.MustRegister()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 15000; i++ {
		k := uint64(rng.Intn(400) + 1)
		switch rng.Intn(4) {
		case 0, 1:
			_, exists := model[k]
			if got := l.Insert(th, k, k+1); got == exists {
				t.Fatalf("op %d: Insert(%d)=%v exists=%v", i, k, got, exists)
			}
			if !exists {
				model[k] = k + 1
			}
		case 2:
			_, exists := model[k]
			if got := l.Delete(th, k); got != exists {
				t.Fatalf("op %d: Delete(%d)=%v exists=%v", i, k, got, exists)
			}
			delete(model, k)
		default:
			_, exists := model[k]
			if got := l.Contains(th, k); got != exists {
				t.Fatalf("op %d: Contains(%d)=%v want %v", i, k, got, exists)
			}
		}
	}
	if l.Len() != len(model) {
		t.Fatalf("Len=%d model=%d", l.Len(), len(model))
	}
	got := l.RangeQuery(th, 1, MaxKey, nil)
	if len(got) != len(model) {
		t.Fatalf("range=%d model=%d", len(got), len(model))
	}
	for _, kv := range got {
		if v, ok := model[kv.Key]; !ok || v != kv.Val {
			t.Fatalf("kv %v model (%d,%v)", kv, v, ok)
		}
	}
}

func TestRangeQuerySortedAndBounded(t *testing.T) {
	for name, mk := range allVariants(t) {
		t.Run(name, func(t *testing.T) {
			l, reg := mk(core.Logical, 1)
			th := reg.MustRegister()
			for _, k := range rand.New(rand.NewSource(3)).Perm(20) {
				l.Insert(th, uint64(k+1)*10, uint64(k+1)*10)
			}
			got := l.RangeQuery(th, 35, 95, nil)
			want := []uint64{40, 50, 60, 70, 80, 90}
			if len(got) != len(want) {
				t.Fatalf("range = %v", got)
			}
			for i, kv := range got {
				if kv.Key != want[i] {
					t.Fatalf("range[%d] = %d, want %d (results must be sorted)", i, kv.Key, want[i])
				}
			}
		})
	}
}

// A range past either end is clamped to the keys a list can hold.
func TestRangeBoundsClamped(t *testing.T) {
	for name, mk := range allVariants(t) {
		t.Run(name, func(t *testing.T) {
			l, reg := mk(core.Logical, 1)
			th := reg.MustRegister()
			l.Insert(th, 1, 1)
			l.Insert(th, MaxKey, 2)
			if got := l.RangeQuery(th, 0, ^uint64(0), nil); len(got) != 2 {
				t.Fatalf("clamped full range = %v", got)
			}
		})
	}
}

func TestConcurrentStriped(t *testing.T) {
	for _, kind := range []core.Kind{core.Logical, core.TSC} {
		l, reg := newBundleList(kind, 8)
		const gs = 4
		const per = 1200
		var wg sync.WaitGroup
		for g := 0; g < gs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				th := reg.MustRegister()
				defer th.Release()
				base := uint64(g*100_000 + 1)
				for i := uint64(0); i < per; i++ {
					if !l.Insert(th, base+i, i) {
						t.Errorf("insert %d failed", base+i)
						return
					}
				}
				for i := uint64(0); i < per; i += 2 {
					if !l.Delete(th, base+i) {
						t.Errorf("delete %d failed", base+i)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if n := l.Len(); n != gs*per/2 {
			t.Fatalf("%v: Len=%d want %d", kind, n, gs*per/2)
		}
	}
}

func TestConcurrentContendedAccounting(t *testing.T) {
	l, reg := newBundleList(core.TSC, 8)
	const gs = 4
	var ins, del [gs]int
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := reg.MustRegister()
			defer th.Release()
			rng := rand.New(rand.NewSource(int64(g * 31)))
			for i := 0; i < 2000; i++ {
				k := uint64(rng.Intn(30) + 1)
				if rng.Intn(2) == 0 {
					if l.Insert(th, k, k) {
						ins[g]++
					}
				} else if l.Delete(th, k) {
					del[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	ti, td := 0, 0
	for g := range ins {
		ti += ins[g]
		td += del[g]
	}
	if got := l.Len(); got != ti-td {
		t.Fatalf("Len=%d inserts-deletes=%d", got, ti-td)
	}
}

// Mid-range queries exercise the index-landing fallback while churn
// deletes and reinserts keys around the range boundary.
func TestMidRangeSnapshotUnderChurn(t *testing.T) {
	l, reg := newBundleList(core.TSC, 4)
	const n = 2000
	th0 := reg.MustRegister()
	for k := uint64(1); k <= n; k++ {
		l.Insert(th0, k, k)
	}
	th0.Release()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := reg.MustRegister()
		defer th.Release()
		rng := rand.New(rand.NewSource(17))
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Churn odd keys near the range start so the landing pred
			// is frequently deleted/reinserted.
			k := uint64(rng.Intn(n) + 1)
			if k%2 == 1 {
				if l.Delete(th, k) {
					l.Insert(th, k, k)
				}
			}
		}
	}()
	th := reg.MustRegister()
	for round := 0; round < 300; round++ {
		lo := uint64(round%1500 + 1)
		hi := lo + 100
		got := l.RangeQuery(th, lo, hi, nil)
		// Even keys are stable: each even key in [lo,hi] must appear
		// exactly once, in order.
		var evens []uint64
		for _, kv := range got {
			if kv.Key%2 == 0 {
				evens = append(evens, kv.Key)
			}
		}
		var want []uint64
		for k := lo; k <= hi && k <= n; k++ {
			if k%2 == 0 {
				want = append(want, k)
			}
		}
		if len(evens) != len(want) {
			t.Fatalf("round %d [%d,%d]: stable keys %v, want %v", round, lo, hi, evens, want)
		}
		for i := range want {
			if evens[i] != want[i] {
				t.Fatalf("round %d: stable key mismatch %v vs %v", round, evens, want)
			}
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Key < got[j].Key }) {
			t.Fatalf("round %d: unsorted snapshot %v", round, got)
		}
	}
	th.Release()
	close(stop)
	wg.Wait()
}

func TestBundleHistoryBounded(t *testing.T) {
	l, reg := newBundleList(core.Logical, 2)
	th := reg.MustRegister()
	for i := 0; i < 30000; i++ {
		l.Insert(th, 64, 1)
		l.Delete(th, 64)
	}
	// The head's bundle absorbs entries for key 64's pred (which is
	// head); truncation must keep it bounded.
	if n := l.head.l.bnd.Len(); n > 1000 {
		t.Fatalf("head bundle grew unbounded: %d entries", n)
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
// held), and once Drain has flushed them, none: every node reachable
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
			for i := 0; i < 200000; i++ {
				k := uint64(rng.Intn(1000) + 1)
				if rng.Intn(2) == 1 {
					l.Delete(th, k)
				} else if l.Insert(th, k, uint64(i)) {
					n := l.lookup(k)
					owner[&n.l.in], owner[&n.l.out] = n, n
				}
			}
			live := l.Len() + 1
			if got := reachableNodes(l, owner); got > 2*live {
				t.Fatalf("%d nodes reachable from the head of a list holding %d", got, live)
			}
			l.Drain()
			// reachableNodes counts the nodes besides the head.
			if got := reachableNodes(l, owner); got != live-1 {
				t.Fatalf("%d nodes reachable from the head after Drain, want the %d keys the list holds", got, live-1)
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

// ---- every construction: the three techniques on the skip list, Bundle
// and vCAS on the one-level (lazy) list ----

type anyList interface {
	Insert(th *core.Thread, key, val uint64) bool
	Delete(th *core.Thread, key uint64) bool
	Contains(th *core.Thread, key uint64) bool
	Get(th *core.Thread, key uint64) (uint64, bool)
	RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV
	Len() int
}

func allVariants(t *testing.T) map[string]func(core.Kind, int) (anyList, *core.Registry) {
	t.Helper()
	return map[string]func(core.Kind, int) (anyList, *core.Registry){
		"bundle": func(k core.Kind, n int) (anyList, *core.Registry) {
			reg := core.NewRegistry(n)
			return New(core.New(k), reg), reg
		},
		"vcas": func(k core.Kind, n int) (anyList, *core.Registry) {
			reg := core.NewRegistry(n)
			return NewVcas(core.New(k), reg), reg
		},
		"ebr-lock": func(k core.Kind, n int) (anyList, *core.Registry) {
			reg := core.NewRegistry(n)
			l, err := NewEBR(core.New(k), reg, ebrrq.LockBased)
			if err != nil {
				t.Fatal(err)
			}
			return l, reg
		},
		"ebr-lockfree": func(k core.Kind, n int) (anyList, *core.Registry) {
			reg := core.NewRegistry(n)
			l, err := NewEBR(core.New(core.Logical), reg, ebrrq.LockFree)
			if err != nil {
				t.Fatal(err)
			}
			return l, reg
		},
		"lazy-bundle": func(k core.Kind, n int) (anyList, *core.Registry) {
			reg := core.NewRegistry(n)
			return NewLazyBundle(core.New(k), reg), reg
		},
		"lazy-vcas": func(k core.Kind, n int) (anyList, *core.Registry) {
			reg := core.NewRegistry(n)
			return NewLazyVcas(core.New(k), reg), reg
		},
	}
}

func TestVariantSequentialModel(t *testing.T) {
	for name, mk := range allVariants(t) {
		t.Run(name, func(t *testing.T) {
			l, reg := mk(core.TSC, 2)
			th := reg.MustRegister()
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(33))
			for i := 0; i < 10000; i++ {
				k := uint64(rng.Intn(300) + 1)
				switch rng.Intn(4) {
				case 0, 1:
					_, exists := model[k]
					if got := l.Insert(th, k, k*5); got == exists {
						t.Fatalf("op %d: Insert(%d)=%v exists=%v", i, k, got, exists)
					}
					if !exists {
						model[k] = k * 5
					}
				case 2:
					_, exists := model[k]
					if got := l.Delete(th, k); got != exists {
						t.Fatalf("op %d: Delete(%d)=%v exists=%v", i, k, got, exists)
					}
					delete(model, k)
				default:
					_, exists := model[k]
					if got := l.Contains(th, k); got != exists {
						t.Fatalf("op %d: Contains(%d)=%v want %v", i, k, got, exists)
					}
				}
			}
			if l.Len() != len(model) {
				t.Fatalf("Len=%d model=%d", l.Len(), len(model))
			}
			got := l.RangeQuery(th, 1, MaxKey, nil)
			if len(got) != len(model) {
				t.Fatalf("range=%d model=%d", len(got), len(model))
			}
			for _, kv := range got {
				if v, ok := model[kv.Key]; !ok || v != kv.Val {
					t.Fatalf("kv %v vs model (%d,%v)", kv, v, ok)
				}
			}
		})
	}
}

func TestVariantConcurrentAccounting(t *testing.T) {
	for name, mk := range allVariants(t) {
		t.Run(name, func(t *testing.T) {
			l, reg := mk(core.TSC, 8)
			const gs = 4
			var ins, del [gs]int
			var wg sync.WaitGroup
			for g := 0; g < gs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					th := reg.MustRegister()
					defer th.Release()
					rng := rand.New(rand.NewSource(int64(g * 7)))
					for i := 0; i < 1500; i++ {
						k := uint64(rng.Intn(30) + 1)
						if rng.Intn(2) == 0 {
							if l.Insert(th, k, k) {
								ins[g]++
							}
						} else if l.Delete(th, k) {
							del[g]++
						}
					}
				}(g)
			}
			wg.Wait()
			ti, td := 0, 0
			for g := range ins {
				ti += ins[g]
				td += del[g]
			}
			if got := l.Len(); got != ti-td {
				t.Fatalf("Len=%d inserts-deletes=%d", got, ti-td)
			}
		})
	}
}

// Mid-range landings under churn for every variant: the index may land
// on nodes outside the snapshot; each variant must recover (bundle:
// pending-init detection; vcas: dead-at-s fallback; ebr: limbo scans).
func TestVariantMidRangeUnderChurn(t *testing.T) {
	for name, mk := range allVariants(t) {
		t.Run(name, func(t *testing.T) {
			l, reg := mk(core.TSC, 4)
			const n = 1500
			th0 := reg.MustRegister()
			for k := uint64(1); k <= n; k++ {
				l.Insert(th0, k, k)
			}
			th0.Release()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := reg.MustRegister()
				defer th.Release()
				rng := rand.New(rand.NewSource(23))
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := uint64(rng.Intn(n) + 1)
					if k%2 == 1 {
						if l.Delete(th, k) {
							l.Insert(th, k, k)
						}
					}
				}
			}()
			th := reg.MustRegister()
			for round := 0; round < 200; round++ {
				lo := uint64(round%1200 + 1)
				hi := lo + 80
				got := l.RangeQuery(th, lo, hi, nil)
				seen := map[uint64]bool{}
				evens := 0
				for _, kv := range got {
					if kv.Key < lo || kv.Key > hi {
						t.Fatalf("round %d: key %d outside [%d,%d]", round, kv.Key, lo, hi)
					}
					if seen[kv.Key] {
						t.Fatalf("round %d: duplicate key %d", round, kv.Key)
					}
					seen[kv.Key] = true
					if kv.Key%2 == 0 {
						evens++
					}
				}
				want := 0
				for k := lo; k <= hi && k <= n; k++ {
					if k%2 == 0 {
						want++
					}
				}
				if evens != want {
					t.Fatalf("round %d [%d,%d]: stable keys %d, want %d", round, lo, hi, evens, want)
				}
			}
			th.Release()
			close(stop)
			wg.Wait()
		})
	}
}

// The early exit of the limbo walk (ebrrq.Collector.AddLimbo) rests on
// deletion labels never increasing down a thread's limbo list. Check it
// on the lists a contended run leaves behind, for both labeling
// variants: no bound may exist at which the early exit loses a node the
// full walk finds.
func TestEBRLimboListsOrdered(t *testing.T) {
	for _, variant := range []ebrrq.Variant{ebrrq.LockBased, ebrrq.LockFree} {
		reg := core.NewRegistry(8)
		l, err := NewEBR(core.New(core.Logical), reg, variant)
		if err != nil {
			t.Fatal(err)
		}
		limbotest.Churn(l, reg, 4, 1500)
		if n := l.p.LimboLen(); n < 500 {
			t.Fatalf("variant %v: only %d limbo nodes; the reservation should have kept them all", variant, n)
		}
		lost := limbotest.Lost(l.p.Technique)
		if len(lost) != 0 {
			t.Fatalf("variant %v: limbo lists are not ordered, %d losses, first: %s", variant, len(lost), lost[0])
		}
	}
}
