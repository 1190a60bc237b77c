package lfbst

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
)

// testMap is the surface the shared tests drive: both instantiations of
// the EFRB tree have it.
type testMap interface {
	Insert(th *core.Thread, key, val uint64) bool
	Delete(th *core.Thread, key uint64) bool
	Contains(th *core.Thread, key uint64) bool
	Get(th *core.Thread, key uint64) (uint64, bool)
	RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV
	Len() int
}

// variant is one row of the table every shared test runs as subtests.
type variant struct {
	name   string
	kind   core.Kind
	ebr    bool
	labels ebrrq.Variant
}

var variants = []variant{
	{name: "vcas", kind: core.TSC},
	{name: "ebr-lock-logical", kind: core.Logical, ebr: true, labels: ebrrq.LockBased},
	{name: "ebr-lock-tsc", kind: core.TSC, ebr: true, labels: ebrrq.LockBased},
	{name: "ebr-lockfree-logical", kind: core.Logical, ebr: true, labels: ebrrq.LockFree},
}

// build returns v's tree over a registry of threads slots.
func (v variant) build(t *testing.T, threads int) (testMap, *core.Registry) {
	t.Helper()
	reg := core.NewRegistry(threads)
	if !v.ebr {
		return New(core.New(v.kind), reg), reg
	}
	tr, err := NewEBR(core.New(v.kind), reg, v.labels)
	if err != nil {
		t.Fatal(err)
	}
	return tr, reg
}

// forEach runs fn on every variant the filter keeps (nil keeps all), each
// as its own subtest.
func forEach(t *testing.T, keep func(variant) bool, fn func(t *testing.T, v variant)) {
	for _, v := range variants {
		if keep == nil || keep(v) {
			t.Run(v.name, func(t *testing.T) { fn(t, v) })
		}
	}
}

func isEBR(v variant) bool { return v.ebr }

// eachTree runs a check written against the tree's internals on every
// variant: vc is its vCAS instantiation, eb its EBR-RQ one.
func eachTree(t *testing.T, threads int, vc func(*testing.T, *Tree, *core.Registry), eb func(*testing.T, *EBRTree, *core.Registry)) {
	forEach(t, nil, func(t *testing.T, v variant) {
		m, reg := v.build(t, threads)
		switch tr := m.(type) {
		case *Tree:
			vc(t, tr, reg)
		case *EBRTree:
			eb(t, tr, reg)
		}
	})
}

func TestEmptyTree(t *testing.T) {
	forEach(t, nil, func(t *testing.T, v variant) {
		tr, reg := v.build(t, 1)
		th := reg.MustRegister()
		if tr.Contains(th, 5) {
			t.Fatal("empty tree contains 5")
		}
		if _, ok := tr.Get(th, 5); ok {
			t.Fatal("empty tree Get(5) ok")
		}
		if tr.Delete(th, 5) {
			t.Fatal("empty tree Delete(5) true")
		}
		if got := tr.RangeQuery(th, 0, MaxKey, nil); len(got) != 0 {
			t.Fatalf("empty tree range = %v", got)
		}
		if tr.Len() != 0 {
			t.Fatalf("empty tree Len = %d", tr.Len())
		}
	})
}

func TestInsertContainsDelete(t *testing.T) {
	forEach(t, nil, func(t *testing.T, v variant) {
		tr, reg := v.build(t, 1)
		th := reg.MustRegister()
		if !tr.Insert(th, 10, 100) {
			t.Fatal("insert 10 failed")
		}
		if tr.Insert(th, 10, 200) {
			t.Fatal("duplicate insert succeeded")
		}
		if v, ok := tr.Get(th, 10); !ok || v != 100 {
			t.Fatalf("Get(10) = (%d,%v)", v, ok)
		}
		if !tr.Delete(th, 10) {
			t.Fatal("delete 10 failed")
		}
		if tr.Contains(th, 10) {
			t.Fatal("10 present after delete")
		}
		if tr.Delete(th, 10) {
			t.Fatal("second delete succeeded")
		}
	})
}

func TestSentinelKeysRejected(t *testing.T) {
	forEach(t, nil, func(t *testing.T, v variant) {
		tr, reg := v.build(t, 1)
		th := reg.MustRegister()
		for _, k := range []uint64{MaxKey + 1, MaxKey + 2} {
			if tr.Insert(th, k, 1) {
				t.Fatalf("insert of sentinel key %d succeeded", k)
			}
			if tr.Delete(th, k) {
				t.Fatalf("delete of sentinel key %d succeeded", k)
			}
		}
		if !tr.Insert(th, MaxKey, 1) {
			t.Fatal("MaxKey must be insertable")
		}
	})
}

func TestSequentialAgainstModel(t *testing.T) {
	forEach(t, nil, func(t *testing.T, v variant) {
		tr, reg := v.build(t, 1)
		th := reg.MustRegister()
		model := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 20000; i++ {
			k := uint64(rng.Intn(500))
			switch rng.Intn(3) {
			case 0:
				_, exists := model[k]
				if got := tr.Insert(th, k, k*7); got == exists {
					t.Fatalf("op %d: Insert(%d) = %v, model exists = %v", i, k, got, exists)
				}
				if !exists {
					model[k] = k * 7
				}
			case 1:
				_, exists := model[k]
				if got := tr.Delete(th, k); got != exists {
					t.Fatalf("op %d: Delete(%d) = %v, model exists = %v", i, k, got, exists)
				}
				delete(model, k)
			case 2:
				_, exists := model[k]
				if got := tr.Contains(th, k); got != exists {
					t.Fatalf("op %d: Contains(%d) = %v, want %v", i, k, got, exists)
				}
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("Len = %d, model = %d", tr.Len(), len(model))
		}
		got := tr.RangeQuery(th, 0, MaxKey, nil)
		if len(got) != len(model) {
			t.Fatalf("range returned %d keys, model has %d", len(got), len(model))
		}
		for _, kv := range got {
			if v, ok := model[kv.Key]; !ok || v != kv.Val {
				t.Fatalf("range kv %v disagrees with model (%d,%v)", kv, v, ok)
			}
		}
	})
}

func TestRangeQueryBounds(t *testing.T) {
	forEach(t, nil, func(t *testing.T, v variant) {
		tr, reg := v.build(t, 1)
		th := reg.MustRegister()
		for k := uint64(10); k <= 100; k += 10 {
			tr.Insert(th, k, k)
		}
		keys := func(lo, hi uint64) []uint64 {
			var ks []uint64
			for _, kv := range tr.RangeQuery(th, lo, hi, nil) {
				ks = append(ks, kv.Key)
			}
			sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
			return ks
		}
		if got := keys(10, 10); len(got) != 1 || got[0] != 10 {
			t.Fatalf("point range = %v", got)
		}
		if got := keys(11, 19); len(got) != 0 {
			t.Fatalf("gap range = %v", got)
		}
		if got := keys(0, MaxKey); len(got) != 10 {
			t.Fatalf("full range = %v", got)
		}
		if got := keys(35, 75); len(got) != 4 {
			t.Fatalf("mid range = %v, want 40..70", got)
		}
	})
}

func TestRangeQueryReuseBuffer(t *testing.T) {
	forEach(t, nil, func(t *testing.T, v variant) {
		tr, reg := v.build(t, 1)
		th := reg.MustRegister()
		for k := uint64(1); k <= 5; k++ {
			tr.Insert(th, k, k)
		}
		buf := make([]core.KV, 0, 16)
		got := tr.RangeQuery(th, 1, 5, buf)
		if len(got) != 5 {
			t.Fatalf("got %d", len(got))
		}
		got2 := tr.RangeQuery(th, 2, 4, got[:0])
		if len(got2) != 3 {
			t.Fatalf("reused buffer got %d", len(got2))
		}
	})
}

// withVcasLogical is the table plus the vCAS tree over a logical camera,
// for the tests that compare the two cameras.
func withVcasLogical(t *testing.T, fn func(t *testing.T, v variant)) {
	forEach(t, nil, fn)
	t.Run("vcas-logical", func(t *testing.T) { fn(t, variant{name: "vcas-logical", kind: core.Logical}) })
}

func TestConcurrentStripedInsertDelete(t *testing.T) {
	withVcasLogical(t, func(t *testing.T, v variant) {
		tr, reg := v.build(t, 8)
		const gs = 4
		const per = 1500
		var wg sync.WaitGroup
		for g := 0; g < gs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				th := reg.MustRegister()
				defer th.Release()
				base := uint64(g * 1_000_000)
				for i := uint64(0); i < per; i++ {
					if !tr.Insert(th, base+i, i) {
						t.Errorf("stripe %d: insert %d failed", g, i)
						return
					}
				}
				for i := uint64(0); i < per; i += 2 {
					if !tr.Delete(th, base+i) {
						t.Errorf("stripe %d: delete %d failed", g, i)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if n := tr.Len(); n != gs*per/2 {
			t.Fatalf("Len = %d, want %d", n, gs*per/2)
		}
		th := reg.MustRegister()
		for g := 0; g < gs; g++ {
			base := uint64(g * 1_000_000)
			for i := uint64(0); i < per; i++ {
				want := i%2 == 1
				if got := tr.Contains(th, base+i); got != want {
					t.Fatalf("Contains(%d) = %v, want %v", base+i, got, want)
				}
			}
		}
		th.Release()
	})
}

// Contended single-key hammering: all threads fight over few keys; the
// tree must stay consistent and ops must keep their exact semantics.
func TestConcurrentContendedOps(t *testing.T) {
	forEach(t, nil, func(t *testing.T, v variant) {
		tr, reg := v.build(t, 8)
		var inserted, deleted [8]int
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				th := reg.MustRegister()
				defer th.Release()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 2000; i++ {
					k := uint64(rng.Intn(8))
					if rng.Intn(2) == 0 {
						if tr.Insert(th, k, k) {
							inserted[g]++
						}
					} else {
						if tr.Delete(th, k) {
							deleted[g]++
						}
					}
				}
			}(g)
		}
		wg.Wait()
		ins, del := 0, 0
		for g := 0; g < 8; g++ {
			ins += inserted[g]
			del += deleted[g]
		}
		if got := tr.Len(); got != ins-del {
			t.Fatalf("Len = %d, successful inserts %d - deletes %d = %d", got, ins, del, ins-del)
		}
	})
}

// Version chains must stay bounded when no range queries are active.
func TestVersionChainsBounded(t *testing.T) {
	reg := core.NewRegistry(2)
	tr := New(core.New(core.Logical), reg)
	th := reg.MustRegister()
	// Hammer one key region so the same objects get many versions.
	for i := 0; i < 20000; i++ {
		tr.Insert(th, 64, 1)
		tr.Delete(th, 64)
	}
	maxChain := 0
	for _, x := range reachable(tr) {
		if !x.l.leaf() {
			maxChain = max(maxChain, x.l.left.ChainLen(), x.l.right.ChainLen())
		}
	}
	if maxChain > 200 {
		t.Fatalf("version chain grew unbounded: %d entries", maxChain)
	}
}

// Structural invariant: the external BST ordering property holds after a
// concurrent workload (left subtree < node key <= right subtree).
func TestBSTInvariantAfterStress(t *testing.T) {
	eachTree(t, 8, bstInvariantAfterStress[vlinks, *vcasTechnique], bstInvariantAfterStress[elinks, *ebrTechnique])
}

func bstInvariantAfterStress[L any, P technique[L]](t *testing.T, tr *tree[L, P], reg *core.Registry) {
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := reg.MustRegister()
			defer th.Release()
			rng := rand.New(rand.NewSource(int64(g * 77)))
			for i := 0; i < 3000; i++ {
				k := uint64(rng.Intn(2000))
				switch rng.Intn(3) {
				case 0:
					tr.Insert(th, k, k)
				case 1:
					tr.Delete(th, k)
				default:
					tr.Contains(th, k)
				}
			}
		}(g)
	}
	wg.Wait()
	var check func(x *node[L], lo, hi uint64)
	check = func(x *node[L], lo, hi uint64) {
		if x.key < lo || x.key > hi {
			t.Fatalf("key %d outside routing bounds [%d,%d]", x.key, lo, hi)
		}
		if !x.leaf() {
			l, r := tr.p.children(x)
			check(l, lo, x.key-1)
			check(r, x.key, hi)
		}
	}
	check(tr.root, 0, inf2)
}

// One tree level is one cache line: key, value, the update field, both
// edges and the version recording the node in its parent edge.
func TestNodeIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(node[vlinks]{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(node[vlinks]{}) = %d, want 64", got)
	}
}

// reachable lists the nodes reachable from tr's root through the edges as
// they are now, in preorder.
func reachable[L any, P technique[L]](tr *tree[L, P]) []*node[L] {
	var out []*node[L]
	var walk func(*node[L])
	walk = func(x *node[L]) {
		out = append(out, x)
		if !x.leaf() {
			l, r := tr.p.children(x)
			walk(l)
			walk(r)
		}
	}
	walk(tr.root)
	return out
}

// target returns what n's edge toward key holds now.
func target[L any, P technique[L]](tr *tree[L, P], n *node[L], key uint64) *node[L] {
	l, r := tr.p.children(n)
	if key < n.key {
		return l
	}
	return r
}

// A child pointer never returns to an old value (DESIGN §7):
// inserting k beside leaf l links a copy of l, and deleting k promotes a
// copy again, so no edge ever holds l a second time.
func TestChildPointerNeverReturns(t *testing.T) {
	eachTree(t, 1, childPointerNeverReturns[vlinks, *vcasTechnique], childPointerNeverReturns[elinks, *ebrTechnique])
}

func childPointerNeverReturns[L any, P technique[L]](t *testing.T, tr *tree[L, P], reg *core.Registry) {
	th := reg.MustRegister()
	tr.Insert(th, 10, 100)
	r := tr.p.search(tr.root, 10)
	tr.Insert(th, 20, 200)
	sib := tr.p.search(tr.root, 10).l
	if sib == r.l || sib.key != 10 || sib.val != 100 {
		t.Fatalf("insert beside l re-linked l itself (or a wrong copy %+v)", sib)
	}
	tr.Delete(th, 20)
	if got := target(tr, r.p, 10); got == r.l || got == sib {
		t.Fatal("after insert k, delete k the parent's edge holds an old leaf pointer again")
	}
	if v, ok := tr.Get(th, 10); !ok || v != 100 {
		t.Fatalf("Get(10) = (%d,%v) after the round trip", v, ok)
	}
}

// chainStats counts reachable nodes and the versions on their edges.
func chainStats(tr *Tree) (nodes, versions int) {
	for _, x := range reachable(tr) {
		nodes++
		if !x.l.leaf() {
			versions += x.l.left.ChainLen() + x.l.right.ChainLen()
		}
	}
	return nodes, versions
}

// history is what a replayed helper must not change beyond the tree's
// shape and contents: the versions on reachable edges and the label of the
// insert's installed version (vCAS), or the limbo population (EBR-RQ).
func history[L any, P technique[L]](tr *tree[L, P], ins *insertInfo[L]) string {
	switch tr := any(tr).(type) {
	case *Tree:
		_, versions := chainStats(tr)
		ni := any(ins.newInternal).(*node[vlinks])
		return fmt.Sprintf("%d versions, installed version labeled %d", versions, ni.l.ver.TS())
	case *EBRTree:
		return fmt.Sprintf("%d in limbo", tr.p.LimboLen())
	}
	return ""
}

// handInsert drives Insert(key)'s descriptor by hand on a quiescent tree,
// so the test owns what a delayed helper would still hold.
func handInsert[L any, P technique[L]](t *testing.T, tr *tree[L, P], th *core.Thread, key uint64) *insertInfo[L] {
	t.Helper()
	r := tr.p.search(tr.root, key)
	if r.l.key >= key {
		t.Fatalf("test tree has the wrong shape around %d", key)
	}
	nl := tr.newNode(th.ID, key, key, nil, nil, nil)
	ins, _ := tr.newInsert(th.ID, r.p, r.l, nl)
	if !r.p.update.CompareAndSwap(r.pupdate, &ins.flag) {
		t.Fatal("flag CAS failed on a quiescent tree")
	}
	tr.helpInsert(ins, th.ID)
	tr.p.present(nl)
	return ins
}

// handDelete drives Delete(key)'s descriptor by hand on a quiescent tree.
func handDelete[L any, P technique[L]](t *testing.T, tr *tree[L, P], th *core.Thread, key uint64, wantInternalSibling bool) *deleteInfo[L] {
	t.Helper()
	r := tr.p.search(tr.root, key)
	other, right := tr.p.children(r.p)
	if other == r.l {
		other = right
	}
	if r.l.key != key || other.leaf() == wantInternalSibling {
		t.Fatalf("test tree has the wrong shape around %d", key)
	}
	tr.p.retire(th, r.l)
	op := &deleteInfo[L]{gp: r.gp, p: r.p, l: r.l, pupdate: r.pupdate, done: new(updateRec[L])}
	op.flag = updateRec[L]{state: dflag, del: op}
	op.mark = updateRec[L]{state: mark, del: op}
	if !r.gp.update.CompareAndSwap(r.gpupdate, &op.flag) || !tr.helpDelete(op, th.ID) {
		t.Fatalf("hand-driven delete of %d failed on a quiescent tree", key)
	}
	return op
}

// A helper replayed after its operation finished (a thread stalled between
// reading the descriptor and its child CAS) must fail that CAS: it must
// neither re-link the dead subtree nor re-arm the installed version
// (vcas.TestCompareAndSwapVersionReplay covers the version's own fields).
func TestDelayedHelperFailsItsCAS(t *testing.T) {
	eachTree(t, 1, delayedHelperFailsItsCAS[vlinks, *vcasTechnique], delayedHelperFailsItsCAS[elinks, *ebrTechnique])
}

func delayedHelperFailsItsCAS[L any, P technique[L]](t *testing.T, tr *tree[L, P], reg *core.Registry) {
	th := reg.MustRegister()
	for _, k := range []uint64{10, 30, 40, 50} {
		tr.Insert(th, k, k)
	}
	// Insert 20 beside leaf 10, as Insert does.
	ins := handInsert(t, tr, th, 20)
	if !tr.Contains(th, 20) {
		t.Fatal("hand-driven insert did not link 20")
	}
	// Delete it again (leaf sibling: the copy of 10 is copied once more),
	// and 30, whose sibling is the internal node over 40 and 50.
	delLeaf := handDelete(t, tr, th, 20, false)
	delInternal := handDelete(t, tr, th, 30, true)

	// Move on: more history on the same edges, and enough updates that the
	// truncation bound passes all three operations.
	for i := uint64(0); i < 200; i++ {
		tr.Insert(th, 20, i)
		tr.Delete(th, 20)
	}
	tr.Insert(th, 30, 31)
	tr.Insert(th, 45, 45) // away from 10's edge, which must now hold no old leaf
	wantKVs, wantNodes, wantHistory := tr.RangeQuery(th, 0, MaxKey, nil), reachable(tr), history(tr, ins)

	// Checked after each replay: a later one may undo what an earlier one
	// re-linked (a replayed delete splices out a replayed insert's node).
	for i, replay := range []func(){
		func() { tr.helpInsert(ins, th.ID) },
		func() { tr.help(&ins.flag, th.ID) }, // the same, through the stale flag record
		func() { tr.helpMarked(delLeaf, th.ID) },
		func() { tr.help(&delLeaf.mark, th.ID) },
		func() { tr.helpDelete(delLeaf, th.ID) }, // a helper that still has to try the mark
		func() { tr.helpMarked(delInternal, th.ID) },
		func() { tr.helpDelete(delInternal, th.ID) },
	} {
		replay()
		gotKVs, gotNodes, gotHistory := tr.RangeQuery(th, 0, MaxKey, nil), reachable(tr), history(tr, ins)
		if !slices.Equal(gotKVs, wantKVs) || !slices.Equal(gotNodes, wantNodes) || gotHistory != wantHistory {
			t.Fatalf("replayed helper %d changed the tree:\n got %v (%d nodes, %s)\nwant %v (%d nodes, %s)",
				i, gotKVs, len(gotNodes), gotHistory, wantKVs, len(wantNodes), wantHistory)
		}
	}
}

// History is bounded by the oldest active query, not by run length: with
// no query active the reachable edges hold a small constant number of
// versions per live node after 200k updates over 1k keys, and with one
// bound announced throughout, a read at that bound still returns exactly
// what the tree held when it was taken.
func TestHistoryBounded(t *testing.T) {
	for _, held := range []bool{false, true} {
		reg := core.NewRegistry(2)
		tr := New(core.New(core.Logical), reg)
		w, q := reg.MustRegister(), reg.MustRegister()
		rng := rand.New(rand.NewSource(15))
		model := map[uint64]uint64{}
		step := func(i int) {
			k := uint64(rng.Intn(1000))
			if rng.Intn(2) == 0 {
				if tr.Insert(w, k, uint64(i)) {
					model[k] = uint64(i)
				}
			} else if tr.Delete(w, k) {
				delete(model, k)
			}
		}
		for i := 0; i < 20000; i++ {
			step(i)
		}
		var want []core.KV
		var s core.TS
		if held {
			for k, v := range model {
				want = append(want, core.KV{Key: k, Val: v})
			}
			core.SortKVs(want)
			q.BeginRQ()
			s = tr.p.Src.Snapshot()
			q.AnnounceRQ(s)
		}
		for i := 20000; i < 200000; i++ {
			step(i)
		}
		if held {
			if got := tr.RangeQueryAt(q, 0, MaxKey, s, nil); !slices.Equal(got, want) {
				t.Fatalf("read at the held bound %d: %d pairs, want the %d of the model at that time", s, len(got), len(want))
			}
			q.DoneRQ()
			continue
		}
		nodes, versions := chainStats(tr)
		if versions > 3*nodes {
			t.Fatalf("%d versions on the edges of %d reachable nodes after 200k updates with no active query", versions, nodes)
		}
		if got := tr.RangeQuery(w, 0, MaxKey, nil); len(got) != len(model) {
			t.Fatalf("tree holds %d keys, model %d", len(got), len(model))
		}
	}
}
