package citrus

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/ebrrq/limbotest"
)

// mapLike is the common surface of the three variants.
type mapLike interface {
	Insert(th *core.Thread, key, val uint64) bool
	Delete(th *core.Thread, key uint64) bool
	Contains(th *core.Thread, key uint64) bool
	Get(th *core.Thread, key uint64) (uint64, bool)
	RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV
	Len() int
}

type variant struct {
	name string
	make func(kind core.Kind, threads int) (mapLike, *core.Registry)
}

func variants(t *testing.T) []variant {
	t.Helper()
	return []variant{
		{"vcas", func(k core.Kind, n int) (mapLike, *core.Registry) {
			reg := core.NewRegistry(n)
			return NewVcas(core.New(k), reg), reg
		}},
		{"bundle", func(k core.Kind, n int) (mapLike, *core.Registry) {
			reg := core.NewRegistry(n)
			return NewBundle(core.New(k), reg), reg
		}},
		{"ebr-lock", func(k core.Kind, n int) (mapLike, *core.Registry) {
			reg := core.NewRegistry(n)
			tr, err := NewEBR(core.New(k), reg, ebrrq.LockBased)
			if err != nil {
				t.Fatal(err)
			}
			return tr, reg
		}},
		{"ebr-lockfree", func(k core.Kind, n int) (mapLike, *core.Registry) {
			reg := core.NewRegistry(n)
			// Lock-free EBR-RQ only exists for logical sources.
			tr, err := NewEBR(core.New(core.Logical), reg, ebrrq.LockFree)
			if err != nil {
				t.Fatal(err)
			}
			return tr, reg
		}},
	}
}

// Node sizes are exact Go size classes; one field more moves a node to the
// next class (the repository benchmark bounds heap_bytes_per_key at 10 %).
func TestNodeSizes(t *testing.T) {
	for name, c := range map[string]struct{ got, want uintptr }{
		"vcas":   {unsafe.Sizeof(node[vlinks]{}), 48},
		"bundle": {unsafe.Sizeof(node[blinks]{}), 64},
		"ebr":    {unsafe.Sizeof(node[elinks]{}), 96},
	} {
		if c.got != c.want {
			t.Errorf("%s node is %d bytes, want %d", name, c.got, c.want)
		}
	}
}

func TestBasicOps(t *testing.T) {
	for _, v := range variants(t) {
		t.Run(v.name, func(t *testing.T) {
			m, reg := v.make(core.Logical, 2)
			th := reg.MustRegister()
			if m.Contains(th, 7) || m.Delete(th, 7) {
				t.Fatal("empty tree misbehaved")
			}
			if !m.Insert(th, 7, 70) || m.Insert(th, 7, 71) {
				t.Fatal("insert semantics broken")
			}
			if got, ok := m.Get(th, 7); !ok || got != 70 {
				t.Fatalf("Get = (%d,%v)", got, ok)
			}
			if !m.Delete(th, 7) || m.Contains(th, 7) || m.Len() != 0 {
				t.Fatal("delete semantics broken")
			}
		})
	}
}

func TestSentinelRejected(t *testing.T) {
	for _, v := range variants(t) {
		m, reg := v.make(core.Logical, 1)
		th := reg.MustRegister()
		if m.Insert(th, MaxKey+1, 0) {
			t.Fatalf("%s: sentinel key insertable", v.name)
		}
		if !m.Insert(th, MaxKey, 0) {
			t.Fatalf("%s: MaxKey not insertable", v.name)
		}
	}
}

// Exercise every delete shape: leaf, one child, two children (successor
// adjacent and distant).
func TestDeleteShapes(t *testing.T) {
	for _, v := range variants(t) {
		t.Run(v.name, func(t *testing.T) {
			m, reg := v.make(core.TSC, 2)
			th := reg.MustRegister()
			// Build:        50
			//            30      70
			//          20  40  60  90
			//                     80
			for _, k := range []uint64{50, 30, 70, 20, 40, 60, 90, 80} {
				m.Insert(th, k, k)
			}
			if !m.Delete(th, 20) { // leaf
				t.Fatal("leaf delete failed")
			}
			if !m.Delete(th, 90) { // one child (80)
				t.Fatal("one-child delete failed")
			}
			if !m.Delete(th, 70) { // two children, successor 80 distant
				t.Fatal("two-children delete failed")
			}
			if !m.Delete(th, 50) { // two children, successor 60 via right child
				t.Fatal("root-ish two-children delete failed")
			}
			want := []uint64{30, 40, 60, 80}
			got := m.RangeQuery(th, 0, MaxKey, nil)
			keys := make([]uint64, len(got))
			for i, kv := range got {
				keys[i] = kv.Key
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			if len(keys) != len(want) {
				t.Fatalf("post-delete keys = %v, want %v", keys, want)
			}
			for i := range want {
				if keys[i] != want[i] {
					t.Fatalf("post-delete keys = %v, want %v", keys, want)
				}
				if !m.Contains(th, want[i]) {
					t.Fatalf("Contains(%d) false", want[i])
				}
			}
		})
	}
}

func TestSequentialAgainstModel(t *testing.T) {
	for _, v := range variants(t) {
		t.Run(v.name, func(t *testing.T) {
			m, reg := v.make(core.TSC, 2)
			th := reg.MustRegister()
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 15000; i++ {
				k := uint64(rng.Intn(300))
				switch rng.Intn(4) {
				case 0, 1:
					_, exists := model[k]
					if got := m.Insert(th, k, k*3); got == exists {
						t.Fatalf("op %d: Insert(%d)=%v, exists=%v", i, k, got, exists)
					}
					if !exists {
						model[k] = k * 3
					}
				case 2:
					_, exists := model[k]
					if got := m.Delete(th, k); got != exists {
						t.Fatalf("op %d: Delete(%d)=%v, exists=%v", i, k, got, exists)
					}
					delete(model, k)
				default:
					_, exists := model[k]
					if got := m.Contains(th, k); got != exists {
						t.Fatalf("op %d: Contains(%d)=%v, want %v", i, k, got, exists)
					}
				}
			}
			if m.Len() != len(model) {
				t.Fatalf("Len=%d model=%d", m.Len(), len(model))
			}
			got := m.RangeQuery(th, 0, MaxKey, nil)
			if len(got) != len(model) {
				t.Fatalf("range len=%d model=%d", len(got), len(model))
			}
			for _, kv := range got {
				if mv, ok := model[kv.Key]; !ok || mv != kv.Val {
					t.Fatalf("kv %v vs model (%d,%v)", kv, mv, ok)
				}
			}
		})
	}
}

func TestConcurrentStripedOps(t *testing.T) {
	for _, v := range variants(t) {
		t.Run(v.name, func(t *testing.T) {
			m, reg := v.make(core.TSC, 8)
			const gs = 4
			const per = 800
			var wg sync.WaitGroup
			for g := 0; g < gs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					th := reg.MustRegister()
					defer th.Release()
					base := uint64(g * 100_000)
					for i := uint64(0); i < per; i++ {
						if !m.Insert(th, base+i, i) {
							t.Errorf("insert %d failed", base+i)
							return
						}
					}
					for i := uint64(0); i < per; i += 2 {
						if !m.Delete(th, base+i) {
							t.Errorf("delete %d failed", base+i)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if n := m.Len(); n != gs*per/2 {
				t.Fatalf("Len=%d want %d", n, gs*per/2)
			}
		})
	}
}

// Random contended mix across overlapping keys, then validate against
// successful-op accounting.
func TestConcurrentContendedAccounting(t *testing.T) {
	for _, v := range variants(t) {
		t.Run(v.name, func(t *testing.T) {
			m, reg := v.make(core.TSC, 8)
			const gs = 4
			var ins, del [gs]int
			var wg sync.WaitGroup
			for g := 0; g < gs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					th := reg.MustRegister()
					defer th.Release()
					rng := rand.New(rand.NewSource(int64(g * 13)))
					for i := 0; i < 1500; i++ {
						k := uint64(rng.Intn(40))
						if rng.Intn(2) == 0 {
							if m.Insert(th, k, k) {
								ins[g]++
							}
						} else if m.Delete(th, k) {
							del[g]++
						}
					}
				}(g)
			}
			wg.Wait()
			totalIns, totalDel := 0, 0
			for g := 0; g < gs; g++ {
				totalIns += ins[g]
				totalDel += del[g]
			}
			if got := m.Len(); got != totalIns-totalDel {
				t.Fatalf("Len=%d, inserts-deletes=%d", got, totalIns-totalDel)
			}
		})
	}
}

// Range snapshots never contain duplicate keys even while two-child
// deletes relocate successors.
func TestNoDuplicateKeysUnderRelocation(t *testing.T) {
	for _, v := range variants(t) {
		t.Run(v.name, func(t *testing.T) {
			m, reg := v.make(core.TSC, 4)
			th0 := reg.MustRegister()
			const n = 300
			for k := uint64(1); k <= n; k++ {
				m.Insert(th0, k, k)
			}
			th0.Release()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := reg.MustRegister()
				defer th.Release()
				rng := rand.New(rand.NewSource(5))
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := uint64(rng.Intn(n) + 1)
					// Churn: delete (often a two-child node) and reinsert.
					if m.Delete(th, k) {
						m.Insert(th, k, k)
					}
				}
			}()
			th := reg.MustRegister()
			for round := 0; round < 150; round++ {
				got := m.RangeQuery(th, 1, n, nil)
				seen := map[uint64]bool{}
				for _, kv := range got {
					if seen[kv.Key] {
						t.Fatalf("duplicate key %d in snapshot", kv.Key)
					}
					seen[kv.Key] = true
				}
			}
			th.Release()
			close(stop)
			wg.Wait()
		})
	}
}

// EBR-specific: limbo lists must not grow without bound when no range
// queries are active.
func TestEBRLimboBounded(t *testing.T) {
	reg := core.NewRegistry(2)
	tr, err := NewEBR(core.New(core.Logical), reg, ebrrq.LockBased)
	if err != nil {
		t.Fatal(err)
	}
	th := reg.MustRegister()
	for i := 0; i < 20000; i++ {
		k := uint64(i % 50)
		tr.Insert(th, k, k)
		tr.Delete(th, k)
	}
	if n := tr.p.LimboLen(); n > 5000 {
		t.Fatalf("limbo grew unbounded: %d nodes", n)
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
		tr, err := NewEBR(core.New(core.Logical), reg, variant)
		if err != nil {
			t.Fatal(err)
		}
		limbotest.Churn(tr, reg, 4, 1500)
		if n := tr.p.LimboLen(); n < 500 {
			t.Fatalf("variant %v: only %d limbo nodes; the reservation should have kept them all", variant, n)
		}
		lost := limbotest.Lost(tr.p.Technique)
		if len(lost) != 0 {
			t.Fatalf("variant %v: limbo lists are not ordered, %d losses, first: %s", variant, len(lost), lost[0])
		}
	}
}

// The nil-child ABA the per-child tags exist for (see the package
// comment): an insert of 72 finds its slot, 90's nil left child, and is
// delayed before it locks 90; 72 is inserted there by someone else; a
// delete of 50, whose successor 72 now is, relocates 72 to 50's place
// and sets 90's left child back to nil. The delayed insert must not
// validate — 72 is in the tree, just no longer under 90 — or the tree
// ends up with two nodes for one key. The delayed insert is played here
// by its two halves: the search, and after the interference the
// validation Insert performs under prev's lock.
func TestStaleInsertAfterSuccessorRelocation(t *testing.T) {
	reg := core.NewRegistry(4)
	staleInsert(t, "vcas", NewVcas(core.New(core.Logical), reg), reg)
	reg = core.NewRegistry(4)
	staleInsert(t, "bundle", NewBundle(core.New(core.Logical), reg), reg)
	for name, variant := range map[string]ebrrq.Variant{"ebr-lock": ebrrq.LockBased, "ebr-lockfree": ebrrq.LockFree} {
		reg = core.NewRegistry(4)
		tr, err := NewEBR(core.New(core.Logical), reg, variant)
		if err != nil {
			t.Fatal(err)
		}
		staleInsert(t, name, tr, reg)
	}
}

// staleInsert is the scenario above on the one traverse and validateInsert
// every technique shares.
func staleInsert[L any, P technique[L]](t *testing.T, name string, tr *tree[L, P], reg *core.Registry) {
	a, b := reg.MustRegister(), reg.MustRegister()
	for _, k := range []uint64{50, 30, 90} {
		tr.Insert(a, k, k)
	}
	prev, curr, tag := tr.traverse(a.ID, 72)
	if curr != nil || prev.key != 90 {
		t.Fatalf("%s: search for 72 ended at parent %d (found %v), want a nil slot under 90", name, prev.key, curr != nil)
	}
	validate := func() bool {
		prev.mu.Lock()
		defer prev.mu.Unlock()
		return tr.validateInsert(prev, 0, tag)
	}
	if !validate() {
		t.Fatalf("%s: an undisturbed insert must validate", name)
	}
	if !tr.Insert(b, 72, 72) || !tr.Delete(b, 50) {
		t.Fatalf("%s: interference failed", name)
	}
	if !tr.Contains(a, 72) || tr.Len() != 3 {
		t.Fatalf("%s: after the relocation the tree must hold 30, 72, 90", name)
	}
	if validate() {
		t.Fatalf("%s: the delayed insert of 72 validates although 72 is in the tree: it would link a duplicate under 90", name)
	}
}

// A range query whose upper bound is the key a two-children delete is
// relocating. The snapshot is taken before the delete; the query then
// meets the successor's copy (labeled after the snapshot, so invisible)
// where the deleted node was, while the original successor — still
// alive, not yet retired — hangs leftmost under the copy's right child.
// Pruning that subtree because hi == the copy's key lost the key from
// both the tree walk and the limbo walk.
func TestEBRRangeFindsSuccessorBehindItsCopy(t *testing.T) {
	reg := core.NewRegistry(4)
	tr, err := NewEBR(core.New(core.Logical), reg, ebrrq.LockBased)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := reg.MustRegister(), reg.MustRegister(), reg.MustRegister()
	for _, k := range []uint64{3, 2, 8, 6, 9} {
		tr.Insert(a, k, k*10)
	}
	a.BeginRQ()
	tr.p.RQLock(-1)
	s := tr.p.Source().Snapshot()
	tr.p.RQUnlock()
	a.AnnounceRQ(s)
	tr.rcu.ReadLock(c.ID) // holds Delete(3) inside its grace period
	done := make(chan bool)
	go func() { done <- tr.Delete(b, 3) }()
	for tr.root.l.child[0].Load().key != 6 { // until the copy is linked
		runtime.Gosched()
	}
	got := tr.RangeQueryAt(a, 4, 6, s, nil)
	a.DoneRQ()
	tr.rcu.ReadUnlock(c.ID)
	if !<-done {
		t.Fatal("Delete(3) failed")
	}
	if len(got) != 1 || got[0] != (core.KV{Key: 6, Val: 60}) {
		t.Fatalf("snapshot of [4,6] taken before the delete = %v, want key 6", got)
	}
	if after := tr.RangeQuery(a, 0, 10, nil); len(after) != 4 {
		t.Fatalf("after the delete the tree holds %v, want 2, 6, 8, 9", after)
	}
}

// steppingSource parks every Peek while armed, one step at a time: the
// labels of a lock-based EBR-RQ update are taken with it.
type steppingSource struct {
	core.Source
	armed  atomic.Bool
	parked chan struct{}
	step   chan struct{}
}

func (p *steppingSource) Peek() core.TS {
	if p.armed.Load() {
		p.parked <- struct{}{}
		<-p.step
	}
	return p.Source.Peek()
}

// A snapshot taken before a two-children delete holds the deleted key and
// the successor's, wherever the delete stands when the query walks the
// tree: stopped at each of its labels in turn (the victim's deletion, the
// copy's insertion, the original successor's deletion), the victim is
// either still linked or already in limbo, never in between.
func TestEBRTwoChildrenDeleteNeverHidesItsVictim(t *testing.T) {
	reg := core.NewRegistry(4)
	src := &steppingSource{Source: core.New(core.Logical), parked: make(chan struct{}), step: make(chan struct{})}
	tr, err := NewEBR(src, reg, ebrrq.LockBased)
	if err != nil {
		t.Fatal(err)
	}
	a, b := reg.MustRegister(), reg.MustRegister()
	for _, k := range []uint64{3, 2, 8, 6, 9} {
		tr.Insert(a, k, k*10)
	}
	reg.MustRegister().BeginRQ() // keeps limbo from being pruned between the queries below
	s := src.Snapshot()
	src.armed.Store(true)
	done := make(chan bool)
	go func() { done <- tr.Delete(b, 3) }()
	for steps := 0; ; steps++ {
		select {
		case <-src.parked:
			a.AnnounceRQ(s)
			if got := tr.RangeQueryAt(a, 0, 10, s, nil); len(got) != 5 {
				t.Errorf("delete stopped at its label %d: the snapshot taken before it = %v, want 2, 3, 6, 8, 9", steps+1, got)
			}
			a.DoneRQ()
			src.step <- struct{}{}
		case ok := <-done:
			if !ok || steps != 3 {
				t.Fatalf("Delete(3) = %v after %d labels, want true after 3", ok, steps)
			}
			return
		}
	}
}

// Point reads follow the labels, not reachability. A node whose deletion is
// labeled but not yet unlinked (retire, then publish) is gone for Contains
// as for a range query bounded after the label. A node linked but not yet
// labeled (publish's store, then its label) counts only once labeled: a
// point read or a failing Insert helps the label in first. It must not
// answer absent there either — the node may be a relocated successor's
// copy, linked while the original still holds the key.
func TestEBRPointReadsFollowLabels(t *testing.T) {
	reg := core.NewRegistry(4)
	tr, err := NewEBR(core.New(core.Logical), reg, ebrrq.LockBased)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := reg.MustRegister(), reg.MustRegister(), reg.MustRegister()
	tr.Insert(a, 5, 50)
	tr.Insert(a, 7, 70)
	five := tr.root.l.child[0].Load()
	tr.p.Label(-1, &five.l.dtime) // retire's label, before the unlink
	if tr.Contains(a, 5) {
		t.Error("Contains(5) true for a node whose deletion is labeled")
	}
	if got := tr.RangeQuery(a, 0, 10, nil); len(got) != 1 || got[0].Key != 7 {
		t.Errorf("range above the deletion label = %v, want only 7", got)
	}

	seven := tr.p.load(five, 1)
	seven.l.itime.Init() // back between publish's store and its label
	if tr.Insert(a, 7, 71) {
		t.Fatal("Insert(7) succeeded beside a linked node holding 7")
	}
	if !seven.l.itime.Assigned() {
		t.Fatal("Insert(7) failed against a node whose insertion it left unlabeled")
	}
	seven.l.itime.Init()
	if v, ok := tr.Get(a, 7); !ok || v != 70 || !seven.l.itime.Assigned() {
		t.Fatalf("Get(7) = (%d, %v) on an unlabeled node, labeled after: %v; want (70, true), true", v, ok, seven.l.itime.Assigned())
	}

	// Delete(3) relocates its successor 6: the copy replaces 3, the
	// original stays below until a grace period, which c holds open.
	tr, err = NewEBR(core.New(core.Logical), reg, ebrrq.LockBased)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{3, 2, 8, 6, 9} {
		tr.Insert(a, k, k*10)
	}
	tr.rcu.ReadLock(c.ID)
	done := make(chan bool)
	go func() { done <- tr.Delete(b, 3) }()
	copy6 := tr.root.l.child[0].Load()
	for copy6.key != 6 || !copy6.l.itime.Assigned() {
		runtime.Gosched()
		copy6 = tr.root.l.child[0].Load()
	}
	copy6.l.itime.Init() // back between the copy's store and its label
	if v, ok := tr.Get(a, 6); !ok || v != 60 {
		t.Errorf("Get(6) = (%d, %v) while 6 is relocated, want (60, true)", v, ok)
	}
	tr.rcu.ReadUnlock(c.ID)
	if !<-done {
		t.Fatal("Delete(3) failed")
	}
}
