package lfbst

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
)

// variant is one instantiation of the tree its frame's own tests run on.
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

// eachTree runs a check written against the tree's internals on every
// variant, each as its own subtest over a registry of threads slots: vc on
// the vCAS instantiation (none when nil), eb on the EBR-RQ ones.
func eachTree(t *testing.T, threads int, vc func(*testing.T, *Tree, *core.Registry), eb func(*testing.T, *EBRTree, *core.Registry)) {
	for _, v := range variants {
		if !v.ebr && vc == nil {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			reg := core.NewRegistry(threads)
			if !v.ebr {
				vc(t, New(core.New(v.kind), reg), reg)
				return
			}
			tr, err := NewEBR(core.New(v.kind), reg, v.labels)
			if err != nil {
				t.Fatal(err)
			}
			eb(t, tr, reg)
		})
	}
}

// One tree level is one cache line: key, value, the update field, both
// edges and the version recording the node in its parent edge.
func TestNodeIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(node[vlinks]{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(node[vlinks]{}) = %d, want 64", got)
	}
}

// An EBR-RQ node is 72 bytes: the shared head, both edges, the lifetime
// pointer, its own two one-word labels and the reference gate.
func TestEBRNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node[elinks]{}); got != 72 {
		t.Fatalf("unsafe.Sizeof(node[elinks]{}) = %d, want 72", got)
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
			versions += x.l.left.Len() + x.l.right.Len()
		}
	}
	return nodes, versions
}

// footprint is what a replayed helper must not change beyond the tree's
// shape and contents: the versions on reachable edges and the label of the
// version an insert installed with internal node ni (vCAS), or the limbo
// population (EBR-RQ).
func footprint[L any, P technique[L]](tr *tree[L, P], ni *node[L]) string {
	switch tr := any(tr).(type) {
	case *Tree:
		_, versions := chainStats(tr)
		return fmt.Sprintf("%d versions, installed version labeled %d", versions, any(ni).(*node[vlinks]).l.ver.TS())
	case *EBRTree:
		return fmt.Sprintf("%d in limbo", tr.p.LimboLen())
	}
	return ""
}

// snapshot is what a replayed or resumed helper must leave as it was: the
// pairs, the reachable nodes and the footprint.
type snapshot[L any] struct {
	kvs     []core.KV
	nodes   []*node[L]
	history string
}

func snap[L any, P technique[L]](tr *tree[L, P], th *core.Thread, ni *node[L]) snapshot[L] {
	return snapshot[L]{tr.RangeQuery(th, 0, MaxKey, nil), reachable(tr), footprint(tr, ni)}
}

func (s snapshot[L]) equal(o snapshot[L]) bool {
	return slices.Equal(s.kvs, o.kvs) && slices.Equal(s.nodes, o.nodes) && s.history == o.history
}

func (s snapshot[L]) String() string {
	return fmt.Sprintf("%v (%d nodes, %s)", s.kvs, len(s.nodes), s.history)
}

// handInsert drives Insert(key)'s attempt by hand on a quiescent tree, so
// the test owns a copy of the fields a delayed helper would still hold.
func handInsert[L any, P technique[L]](t *testing.T, tr *tree[L, P], th *core.Thread, key uint64) op[L] {
	t.Helper()
	r := tr.p.search(tr.root, key)
	if r.l.key >= key {
		t.Fatalf("test tree has the wrong shape around %d", key)
	}
	nl := tr.newNode(th.ID, key, key, nil, nil, nil)
	o, _ := tr.newInsert(th.ID, r.p, r.l, nl)
	if !r.p.update.CompareAndSwap(r.pupdate, o.w|iflag) {
		t.Fatal("flag CAS failed on a quiescent tree")
	}
	tr.helpInsert(o, th.ID)
	tr.p.present(nl)
	return o
}

// handDelete drives Delete(key)'s attempt by hand on a quiescent tree.
func handDelete[L any, P technique[L]](t *testing.T, tr *tree[L, P], th *core.Thread, key uint64, wantInternalSibling bool) op[L] {
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
	o := tr.attempt(th.ID, r.gp, r.p, r.l, nil, r.pupdate)
	if !r.gp.update.CompareAndSwap(r.gpupdate, o.w|dflag) || !tr.helpDelete(o, th.ID) {
		t.Fatalf("hand-driven delete of %d failed on a quiescent tree", key)
	}
	return o
}

// A helper replayed after its operation finished must change nothing, in
// both forms a delayed helper takes. One that still holds a node's word (a
// thread stalled between reading the update field and loading the
// descriptor) finds the slot's sequence moved on and writes nothing, also
// once the slot has been released and re-registered: the sequence lives in
// the descriptor, so it does not restart. One that loaded the attempt's
// fields before the owner moved on (stalled between that load and its child
// CAS) must fail every CAS: it must neither re-link the dead subtree nor
// re-arm the installed version (history.TestCompareAndSwapVersionReplay
// covers the version's own fields).
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

	// Move on: 400 more updates from the same slot on the same edges, so
	// the truncation bound passes all three operations.
	for i := uint64(0); i < 200; i++ {
		tr.Insert(th, 20, i)
		tr.Delete(th, 20)
	}
	tr.Insert(th, 30, 31)
	tr.Insert(th, 45, 45) // away from 10's edge, which must now hold no old leaf

	words := []uint64{ins.w | iflag, delLeaf.w | dflag, delLeaf.w | mark, delInternal.w | dflag, delInternal.w | mark}
	slot, last := tr.words.decode(delInternal.w)
	d := tr.descs[slot].Load()
	if moved := d.seq.Load() - last; moved < 400 {
		t.Fatalf("the slot ran %d attempts after the last replayed one, want 400 or more", moved)
	}
	// Checked after each replay: a later one may undo what an earlier one
	// re-linked (a replayed delete splices out a replayed insert's node).
	replay := func(form string, replays []func()) {
		t.Helper()
		want := snap(tr, th, ins.ni)
		for i, r := range replays {
			r()
			if got := snap(tr, th, ins.ni); !got.equal(want) {
				t.Fatalf("%s %d changed the tree:\n got %v\nwant %v", form, i, got, want)
			}
		}
	}
	stale := func() []func() {
		var rs []func()
		for _, w := range words {
			rs = append(rs, func() { tr.help(w, th.ID) })
		}
		return rs
	}
	replay("stale word", stale())
	replay("captured fields", []func(){
		func() { tr.helpInsert(ins, th.ID) },
		func() { tr.helpMarked(delLeaf, th.ID) },
		func() { tr.helpDelete(delLeaf, th.ID) }, // a helper that still has to try the mark
		func() { tr.helpMarked(delInternal, th.ID) },
		func() { tr.helpDelete(delInternal, th.ID) },
	})

	// The slot changes hands: its sequence carries on from where it was.
	id, before := th.ID, d.seq.Load()
	th.Release()
	if th = reg.MustRegister(); th.ID != id {
		t.Fatalf("re-registered into slot %d, want %d", th.ID, id)
	}
	tr.Insert(th, 20, 20)
	if got := d.seq.Load(); got != before+1 {
		t.Fatalf("the re-registered slot's first attempt has sequence %d, want %d", got, before+1)
	}
	replay("stale word after re-registration", stale())
}

// A helper that read a node's word, then stalled while the owner completed
// that attempt and began another, loads the slot's fields — the later
// attempt's — and parks before its sequence check while the owner runs one
// more update. Resumed, it must find the sequence moved and write nothing.
// Here the stale word is the mark of a delete whose sibling was internal,
// and the later attempt an insert under that sibling: its fields applied to
// the mark would splice the sibling's new child into the delete's
// grandparent and drop leaf 50.
func TestHelperOutwaitsReusedDescriptor(t *testing.T) {
	eachTree(t, 1, helperOutwaitsReusedDescriptor[vlinks, *vcasTechnique], helperOutwaitsReusedDescriptor[elinks, *ebrTechnique])
}

func helperOutwaitsReusedDescriptor[L any, P technique[L]](t *testing.T, tr *tree[L, P], reg *core.Registry) {
	th := reg.MustRegister()
	for _, k := range []uint64{10, 30, 40, 50} {
		tr.Insert(th, k, k)
	}
	p := tr.p.search(tr.root, 30).p
	tr.Delete(th, 30)
	w := p.update.Load()
	if w&stateMask != mark {
		t.Fatalf("30's parent holds state %d after the delete, want the mark", w&stateMask)
	}
	tr.Insert(th, 45, 45) // the slot's next attempt: beside 40, under 30's old sibling
	ni := tr.p.search(tr.root, 45).p

	parked, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	restore := parkAfterLoad(func(got uint64) {
		if got == w {
			close(parked)
			<-release
		}
	})
	defer restore()
	go func() {
		defer close(done)
		tr.help(w, -1)
	}()
	<-parked
	tr.Insert(th, 5, 5) // one more update from the same slot
	want := snap(tr, th, ni)
	close(release)
	<-done
	if got := snap(tr, th, ni); !got.equal(want) {
		t.Fatalf("the resumed helper changed the tree:\n got %v\nwant %v", got, want)
	}
	model := []core.KV{{Key: 5, Val: 5}, {Key: 10, Val: 10}, {Key: 40, Val: 40}, {Key: 45, Val: 45}, {Key: 50, Val: 50}}
	if !slices.Equal(want.kvs, model) {
		t.Fatalf("tree holds %v, want %v", want.kvs, model)
	}
}

// An update word holds the state, the slot and at least minSeqBits of
// sequence: a registry too large for that is refused, never wrapped.
func TestUpdateWordLayout(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 256, MaxThreads} {
		ws, err := layout(threads)
		if err != nil {
			t.Fatalf("layout(%d): %v", threads, err)
		}
		last := uint64(1)<<minSeqBits - 1 // the last sequence the word must hold
		if slot, seq := ws.decode(ws.encode(threads-1, last) | dflag); slot != uint64(threads-1) || seq != last {
			t.Errorf("layout(%d) decodes slot %d's sequence %#x as slot %d, sequence %#x", threads, threads-1, last, slot, seq)
		}
	}
	if _, err := layout(MaxThreads + 1); err == nil {
		t.Errorf("layout(%d) accepted a registry whose slots leave under %d bits of sequence", MaxThreads+1, minSeqBits)
	}
}

// A slot's descriptor has a cache line to itself.
func TestDescIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(desc[vlinks]{}); got != 64 {
		t.Errorf("unsafe.Sizeof(desc[vlinks]{}) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(desc[elinks]{}); got != 64 {
		t.Errorf("unsafe.Sizeof(desc[elinks]{}) = %d, want 64", got)
	}
}
