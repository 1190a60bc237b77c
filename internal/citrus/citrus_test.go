package citrus

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
)

// Node sizes are exact Go size classes; one field more moves a node to the
// next class (the repository benchmark bounds heap_bytes_per_key at 10 %).
func TestNodeSizes(t *testing.T) {
	for name, c := range map[string]struct{ got, want uintptr }{
		"vcas":   {unsafe.Sizeof(node[vlinks]{}), 48},
		"bundle": {unsafe.Sizeof(node[blinks]{}), 64},
		"ebr":    {unsafe.Sizeof(node[elinks]{}), 64},
	} {
		if c.got != c.want {
			t.Errorf("%s node is %d bytes, want %d", name, c.got, c.want)
		}
	}
}

// Every delete shape — a leaf, one child, two children with the successor
// distant and adjacent — on every technique, leaving the tree in shape.
func TestDeleteShapes(t *testing.T) {
	reg := core.NewRegistry(1)
	deleteShapes(t, "vcas", NewVcas(core.New(core.TSC), reg), reg)
	reg = core.NewRegistry(1)
	deleteShapes(t, "bundle", NewBundle(core.New(core.TSC), reg), reg)
	for name, variant := range map[string]ebrrq.Variant{"ebr-lock": ebrrq.LockBased, "ebr-lockfree": ebrrq.LockFree} {
		reg = core.NewRegistry(1)
		tr, err := NewEBR(core.New(core.Logical), reg, variant)
		if err != nil {
			t.Fatal(err)
		}
		deleteShapes(t, name, tr, reg)
	}
}

func deleteShapes[L any, P technique[L]](t *testing.T, name string, tr *tree[L, P], reg *core.Registry) {
	th := reg.MustRegister()
	// Build:        50
	//            30      70
	//          20  40  60  90
	//                     80
	for _, k := range []uint64{50, 30, 70, 20, 40, 60, 90, 80} {
		tr.Insert(th, k, k)
	}
	for _, k := range []uint64{20, 90, 70, 50} { // leaf, one child, successor 80 distant, successor 60 adjacent
		if !tr.Delete(th, k) {
			t.Fatalf("%s: Delete(%d) failed", name, k)
		}
	}
	want := []core.KV{{Key: 30, Val: 30}, {Key: 40, Val: 40}, {Key: 60, Val: 60}, {Key: 80, Val: 80}}
	if got := tr.RangeQuery(th, 0, MaxKey, nil); !slices.Equal(got, want) {
		t.Fatalf("%s: after the deletes the tree holds %v, want %v", name, got, want)
	}
	for _, kv := range want {
		if !tr.Contains(th, kv.Key) {
			t.Fatalf("%s: Contains(%d) false after the deletes", name, kv.Key)
		}
	}
	tr.Drain()
	if n, _, err := tr.Shape(); n != len(want) || err != nil {
		t.Fatalf("%s: Shape after the deletes: %d keys, %v", name, n, err)
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
	tr.Drain()
	if n, _, err := tr.Shape(); !tr.Contains(a, 72) || n != 3 || err != nil {
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
	if seven.l.itime.Get() == core.Pending {
		t.Fatal("Insert(7) failed against a node whose insertion it left unlabeled")
	}
	seven.l.itime.Init()
	if v, ok := tr.Get(a, 7); !ok || v != 70 || seven.l.itime.Get() == core.Pending {
		t.Fatalf("Get(7) = (%d, %v) on an unlabeled node, label after: %d; want (70, true), a label", v, ok, seven.l.itime.Get())
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
	for copy6.key != 6 || copy6.l.itime.Get() == core.Pending {
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
