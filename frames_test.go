package tscds

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"tscds/internal/citrus"
	"tscds/internal/core"
	"tscds/internal/history"
	"tscds/internal/lfbst"
	"tscds/internal/obs"
	"tscds/internal/skiplist"
)

// A frameCell is one cell of the conformance table: a (structure,
// technique) pair New accepts on a Logical or a TSC source, built as one
// part of a map (buildInner).
type frameCell struct {
	combo
	k SourceKind
}

func (fc frameCell) String() string { return fmt.Sprintf("%v-%v-%v", fc.S, fc.T, fc.k) }

// frameCells is every documented pair on both sources, lock-free EBR-RQ on
// Logical only: 23 cells.
func frameCells() []frameCell {
	var cs []frameCell
	for _, c := range documented {
		for _, k := range []SourceKind{Logical, TSC} {
			if c.T != EBRRQLockFree || k == Logical {
				cs = append(cs, frameCell{c, k})
			}
		}
	}
	return cs
}

// build returns the cell's part over src (a fresh source of the cell's
// kind when nil) for a registry of threads slots, wired to h.
func (fc frameCell) build(t *testing.T, threads int, src core.Source, h core.Hooks) (inner, *core.Registry) {
	t.Helper()
	if src == nil {
		src = core.New(fc.k)
	}
	reg := core.NewRegistry(threads)
	m, err := buildInner(fc.S, fc.T, fc.k, src, reg, h)
	if err != nil {
		t.Fatal(err)
	}
	return m, reg
}

func isEBRRQ(fc frameCell) bool     { return fc.T == EBRRQ || fc.T == EBRRQLockFree }
func lockedEBRRQ(fc frameCell) bool { return fc.T == EBRRQ }
func historyCell(fc frameCell) bool { return fc.T.keepsHistory() }

// frameRows is the table: each row runs on every cell it applies to (nil:
// all) and ends with the part's Shape.
var frameRows = []struct {
	name    string
	applies func(frameCell) bool
	run     func(t *testing.T, fc frameCell)
}{
	{"model", nil, rowModel},
	{"bounds", nil, rowBounds},
	{"striped", nil, rowStriped},
	{"contended", nil, rowContended},
	{"churn", nil, rowChurn},
	{"labels", lockedEBRRQ, rowLabels},
	{"history", historyCell, rowHistory},
	{"limbo", isEBRRQ, rowLimbo},
}

// TestFrameConformance runs the conformance table: every row on every cell
// it applies to, each ending with inner.Shape.
func TestFrameConformance(t *testing.T) {
	for _, r := range frameRows {
		t.Run(r.name, func(t *testing.T) {
			for _, fc := range frameCells() {
				if r.applies == nil || r.applies(fc) {
					t.Run(fc.String(), func(t *testing.T) {
						t.Parallel()
						r.run(t, fc)
					})
				}
			}
		})
	}
}

// checkShape drains m and requires its Shape to hold with want keys (any
// number when negative), returning the depth. loose tolerates
// history.ErrUntrimmed, what a trim a concurrent reader held back leaves.
func checkShape(t *testing.T, m inner, want int, loose bool) int {
	t.Helper()
	m.Drain()
	n, depth, err := m.Shape()
	if loose && errors.Is(err, history.ErrUntrimmed) {
		err = nil
	}
	if err != nil || want >= 0 && n != want {
		t.Fatalf("Shape: %d keys (want %d), depth %d: %v", n, want, depth, err)
	}
	return depth
}

// modelRange is the model's pairs in [lo, hi], ascending.
func modelRange(model map[uint64]uint64, lo, hi uint64) []KV {
	var out []KV
	if hi-lo < uint64(len(model)) {
		for k := lo; k <= hi; k++ {
			if v, ok := model[k]; ok {
				out = append(out, KV{Key: k, Val: v})
			}
		}
		return out
	}
	for k, v := range model {
		if k >= lo && k <= hi {
			out = append(out, KV{Key: k, Val: v})
		}
	}
	core.SortKVs(out)
	return out
}

// rowModel: 20,000 random operations from one thread against a map model —
// inserts (refused on a present key, which keeps its value), deletes, point
// reads and range queries of up to 64 keys — then the whole key space.
func rowModel(t *testing.T, fc frameCell) {
	m, reg := fc.build(t, 1, nil, core.Hooks{})
	th := reg.MustRegister()
	rd := m.Reader()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(42))
	for i := range 20000 {
		k := uint64(rng.Intn(500))
		v, had := model[k]
		switch op := rng.Intn(8); {
		case op < 3:
			if m.Insert(th, k, uint64(i)) == had {
				t.Fatalf("op %d: Insert(%d) = %v with the key present: %v", i, k, !had, had)
			}
			if !had {
				model[k] = uint64(i)
			}
		case op < 5:
			if m.Delete(th, k) != had {
				t.Fatalf("op %d: Delete(%d) = %v with the key present: %v", i, k, !had, had)
			}
			delete(model, k)
		case op < 7:
			if got, ok := m.Get(th, k); ok != had || ok && got != v {
				t.Fatalf("op %d: Get(%d) = (%d, %v), want (%d, %v)", i, k, got, ok, v, had)
			}
		default:
			hi := k + uint64(rng.Intn(64))
			if got, want := rd.Live(th, k, hi, nil), modelRange(model, k, hi); !slices.Equal(got, want) {
				t.Fatalf("op %d: range [%d, %d] = %v, want %v", i, k, hi, got, want)
			}
		}
	}
	checkShape(t, m, len(model), false)
	if got, want := rd.Live(th, 0, MaxKey, nil), modelRange(model, 0, MaxKey); !slices.Equal(got, want) {
		t.Fatalf("the whole key space holds %d pairs, the model %d", len(got), len(want))
	}
}

// frameMax is the largest key each structure stores itself; the frames keep
// their sentinels above it, and the facade's MaxKey is below them all.
var frameMax = map[Structure]uint64{BST: lfbst.MaxKey, Citrus: citrus.MaxKey, SkipList: skiplist.MaxKey, LazyList: skiplist.MaxKey}

// rowBounds: an empty part holds nothing; both ends of the frame's key
// space are keys like any other and nothing above them is taken; range
// queries are inclusive, ascending and clamped, and append to the caller's
// buffer, whose prefix they keep and whose array they reuse.
func rowBounds(t *testing.T, fc frameCell) {
	m, reg := fc.build(t, 1, nil, core.Hooks{})
	th := reg.MustRegister()
	rd := m.Reader()
	if _, ok := m.Get(th, 5); ok || m.Delete(th, 5) || len(rd.Live(th, 0, ^uint64(0), nil)) != 0 {
		t.Fatal("an empty part holds key 5 or a pair")
	}
	checkShape(t, m, 0, false)
	top := frameMax[fc.S]
	want := []KV{{Key: 0, Val: 7}}
	for k := uint64(10); k <= 100; k += 10 {
		want = append(want, KV{Key: k, Val: k})
	}
	want = append(want, KV{Key: top, Val: 8})
	for _, kv := range want {
		if !m.Insert(th, kv.Key, kv.Val) || m.Insert(th, kv.Key, 9) {
			t.Fatalf("Insert(%d) refused, or taken twice", kv.Key)
		}
	}
	for k := top + 1; k != 0; k++ {
		if m.Insert(th, k, 1) || m.Delete(th, k) {
			t.Fatalf("key %d, above the frame's largest, was taken", k)
		}
	}
	for _, q := range []struct {
		lo, hi uint64
		want   []KV
	}{{10, 10, want[1:2]}, {11, 19, nil}, {35, 75, want[4:8]}, {0, ^uint64(0), want}, {top, ^uint64(0), want[11:]}} {
		if got := rd.Live(th, q.lo, q.hi, nil); !slices.Equal(got, q.want) {
			t.Fatalf("range [%d, %d] = %v, want %v", q.lo, q.hi, got, q.want)
		}
	}
	buf := append(make([]KV, 0, 16), KV{Key: 99, Val: 99})
	if got := rd.Live(th, 10, 30, buf); !slices.Equal(got, append([]KV{buf[0]}, want[1:4]...)) || &got[0] != &buf[0] {
		t.Fatalf("range [10, 30] after a one-pair prefix = %v", got)
	}
	if got := rd.Live(th, 20, 40, buf[:0]); !slices.Equal(got, want[2:5]) || &got[0] != &buf[0] {
		t.Fatalf("range [20, 40] into the emptied buffer = %v", got)
	}
	checkShape(t, m, len(want), false)
}

// rowStriped: four threads insert stripes of 1,500 keys each (150 on the
// lazy list, whose every operation walks the list) in a shuffled order and
// delete the even ones, while a fifth takes snapshots of all stripes that
// must ascend without a repeat. Every key then reads as its stripe left it,
// and a tree is no spine.
func rowStriped(t *testing.T, fc frameCell) {
	const gs = 4
	per := 1500
	if fc.S == LazyList {
		per = 150
	}
	m, reg := fc.build(t, gs+2, nil, core.Hooks{})
	var wg sync.WaitGroup
	for g := range gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := reg.MustRegister()
			defer th.Release()
			base := uint64(g) * 100_000
			keys := rand.New(rand.NewSource(int64(g))).Perm(per)
			for _, i := range keys {
				if !m.Insert(th, base+uint64(i), uint64(i)) {
					t.Errorf("stripe %d: Insert(%d) failed", g, i)
					return
				}
			}
			for _, i := range keys {
				if i%2 == 0 && !m.Delete(th, base+uint64(i)) {
					t.Errorf("stripe %d: Delete(%d) failed", g, i)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := reg.MustRegister()
		defer th.Release()
		for range 30 {
			kvs := m.Reader().Live(th, 0, gs*100_000, nil)
			for i := 1; i < len(kvs); i++ {
				if kvs[i-1].Key >= kvs[i].Key {
					t.Errorf("snapshot holds key %d before key %d", kvs[i-1].Key, kvs[i].Key)
					return
				}
			}
		}
	}()
	wg.Wait()
	if depth := checkShape(t, m, gs*per/2, true); depth > 100 {
		t.Errorf("depth %d after shuffled inserts of %d keys", depth, gs*per)
	}
	th := reg.MustRegister()
	for g := range gs {
		for i := range uint64(per) {
			if v, ok := m.Get(th, uint64(g)*100_000+i); ok != (i%2 == 1) || ok && v != i {
				t.Fatalf("stripe %d: Get(%d) = (%d, %v)", g, i, v, ok)
			}
		}
	}
}

// rowContended: eight threads fight over 8 keys; the part ends holding
// exactly the successful inserts less the successful deletes.
func rowContended(t *testing.T, fc frameCell) {
	const gs = 8
	m, reg := fc.build(t, gs, nil, core.Hooks{})
	var ins, del [gs]int
	var wg sync.WaitGroup
	for g := range gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := reg.MustRegister()
			defer th.Release()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 2000 {
				k := uint64(rng.Intn(8))
				if rng.Intn(2) == 0 {
					if m.Insert(th, k, k) {
						ins[g]++
					}
				} else if m.Delete(th, k) {
					del[g]++
				}
			}
		}()
	}
	wg.Wait()
	n := 0
	for g := range gs {
		n += ins[g] - del[g]
	}
	checkShape(t, m, n, false)
}

// rowChurn: 300 range queries of 101 keys at moving offsets over keys
// 1..2000 while another thread deletes and re-inserts odd keys — landing on nodes
// deleted around the bound, and on Citrus relocating successors: every
// snapshot ascends inside its interval and holds each even key once.
func rowChurn(t *testing.T, fc frameCell) {
	const n = 2000
	m, reg := fc.build(t, 3, nil, core.Hooks{})
	th := reg.MustRegister()
	for k := uint64(1); k <= n; k++ {
		m.Insert(th, k, k)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := reg.MustRegister()
		defer w.Release()
		rng := rand.New(rand.NewSource(23))
		for !stop.Load() {
			if k := uint64(2*rng.Intn(n/2) + 1); m.Delete(w, k) {
				m.Insert(w, k, k)
			}
		}
	}()
	defer wg.Wait()
	defer stop.Store(true)
	for round := range uint64(300) {
		lo := round%1500 + 1
		hi := lo + 100
		var evens []uint64
		kvs := m.Reader().Live(th, lo, hi, nil)
		for i, kv := range kvs {
			if kv.Key < lo || kv.Key > hi || i > 0 && kvs[i-1].Key >= kv.Key {
				t.Fatalf("round %d: snapshot of [%d, %d] = %v", round, lo, hi, kvs)
			}
			if kv.Key%2 == 0 {
				evens = append(evens, kv.Key)
			}
		}
		if len(evens) != int(hi/2-(lo-1)/2) || evens[0] != lo+lo%2 {
			t.Fatalf("round %d: snapshot of [%d, %d] holds the even keys %v", round, lo, hi, evens)
		}
	}
	stop.Store(true)
	wg.Wait()
	checkShape(t, m, n, true)
}

// stoppingSource parks the first Peek after armed is set until the test
// sends on parked: a lock-based EBR-RQ update labels with Peek, so an armed
// source stops an insert between linking its node and labeling it, and a
// delete just before labeling its victim.
type stoppingSource struct {
	core.Source
	armed  atomic.Bool
	parked chan struct{}
}

func (p *stoppingSource) Peek() core.TS {
	if p.armed.CompareAndSwap(true, false) {
		p.parked <- struct{}{}
		<-p.parked
	}
	return p.Source.Peek()
}

// rowLabels: on lock-based EBR-RQ, point reads follow the labels, not
// reachability. An insert stopped between linking its node and labeling it
// is found by a point read, which helps the label in; a delete stopped
// before labeling its victim leaves the key present until the label is
// written. The lock-free variant labels through DCSS at the counter's
// address, which no source can stop.
func rowLabels(t *testing.T, fc frameCell) {
	src := &stoppingSource{Source: core.New(fc.k), parked: make(chan struct{})}
	m, reg := fc.build(t, 2, src, core.Hooks{})
	a, b := reg.MustRegister(), reg.MustRegister()
	m.Insert(a, 3, 30)
	m.Insert(a, 9, 90)
	stopped := func(op func() bool) chan bool {
		done := make(chan bool, 1)
		src.armed.Store(true)
		go func() { done <- op() }()
		select {
		case <-src.parked:
		case ok := <-done:
			t.Fatalf("the update returned %v without taking a label", ok)
		}
		return done
	}
	done := stopped(func() bool { return m.Insert(b, 5, 50) })
	if v, ok := m.Get(a, 5); !ok || v != 50 {
		t.Errorf("Get(5) between the insert's link and its label = (%d, %v), want (50, true)", v, ok)
	}
	src.parked <- struct{}{}
	if !<-done {
		t.Fatal("Insert(5) failed")
	}
	done = stopped(func() bool { return m.Delete(b, 5) })
	if _, ok := m.Get(a, 5); !ok {
		t.Error("Get(5) before the delete's label: absent")
	}
	src.parked <- struct{}{}
	if !<-done {
		t.Fatal("Delete(5) failed")
	}
	if _, ok := m.Get(a, 5); ok {
		t.Error("Get(5) after the delete: present")
	}
	checkShape(t, m, 2, false)
}

// rowHistory: history is bounded by the oldest reader, not by run length.
// One thread makes 60,000 updates over 1,000 keys (200,000 on the BST, the
// size of the test this row took over; 100 keys on the lazy list, whose
// every operation walks the list); the trims they batch have detached
// at least one entry for every two successful updates before Drain, and
// after it every edge holds one entry. With a range query's bound announced
// after the first tenth, a read at that bound still returns what the part
// held then, and no edge keeps more than one entry at or below it.
func rowHistory(t *testing.T, fc frameCell) {
	steps, keys := 60_000, 1000
	switch fc.S {
	case BST:
		steps = 200_000
	case LazyList:
		keys = 100
	}
	for _, held := range []bool{false, true} {
		t.Run(map[bool]string{false: "no-reader", true: "held-bound"}[held], func(t *testing.T) {
			var gc obs.GC
			src := core.New(fc.k)
			m, reg := fc.build(t, 3, src, core.Hooks{GC: &gc})
			w, q, r := reg.MustRegister(), reg.MustRegister(), reg.MustRegister()
			rng := rand.New(rand.NewSource(15))
			model := map[uint64]uint64{}
			updates := 0
			var want []KV
			var s core.TS
			for i := range steps {
				if held && i == steps/10 {
					want = modelRange(model, 0, MaxKey)
					q.BeginRQ()
					s = src.Snapshot()
					q.AnnounceRQ(s)
				}
				k := uint64(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					if m.Insert(w, k, uint64(i)) {
						model[k] = uint64(i)
						updates++
					}
				} else if m.Delete(w, k) {
					delete(model, k)
					updates++
				}
			}
			if pruned := gc.VcasVersionsPruned.Load() + gc.BundleEntriesPruned.Load(); !held && pruned < uint64(updates/2) {
				t.Fatalf("%d updates, and their trims detached %d entries before Drain", updates, pruned)
			}
			checkShape(t, m, len(model), false)
			if !held {
				return
			}
			if got, _, err := m.Reader().Read(r, 0, MaxKey, s, false, nil); err != nil || !slices.Equal(got, want) {
				t.Fatalf("read at the held bound %d: %d pairs (%v), want the %d the part held then", s, len(got), err, len(want))
			}
			q.DoneRQ()
		})
	}
}

// rowLimbo: limbo is bounded and ordered. Bounded: 20,000 insert-delete
// pairs over 40 keys with no range query leave at most 5,000 nodes in
// limbo, and none after Drain. Ordered: six threads churn updates and short
// range queries over 64 keys while a held reservation keeps everything they
// retire; limbo fills, and Shape finds it labeled and ordered, as
// AddLimbo's early exit needs. Released and drained, limbo is empty.
func rowLimbo(t *testing.T, fc frameCell) {
	t.Run("bounded", func(t *testing.T) {
		var gc obs.GC
		m, reg := fc.build(t, 1, nil, core.Hooks{GC: &gc})
		th := reg.MustRegister()
		for i := range 20000 {
			k := uint64(i % 40)
			m.Insert(th, k, k)
			m.Delete(th, k)
		}
		if n := gc.LimboLen.Load(); n > 5000 {
			t.Fatalf("%d nodes in limbo with no range query active", n)
		}
		checkShape(t, m, 0, false)
	})
	t.Run("ordered", func(t *testing.T) {
		var gc obs.GC
		m, reg := fc.build(t, 7, nil, core.Hooks{GC: &gc})
		th := reg.MustRegister()
		th.BeginRQ()
		var wg sync.WaitGroup
		for w := range 6 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := reg.MustRegister()
				defer th.Release()
				rng := rand.New(rand.NewSource(int64(w) + 1))
				for range 1500 {
					switch k := uint64(1 + rng.Intn(64)); rng.Intn(8) {
					case 0:
						m.Reader().Live(th, k, k+8, nil)
					case 1, 2, 3:
						m.Insert(th, k, k)
					default:
						m.Delete(th, k)
					}
				}
			}()
		}
		wg.Wait()
		if n := gc.LimboLen.Load(); n < 500 {
			t.Fatalf("%d nodes in limbo; the reservation should have kept every one retired", n)
		}
		checkShape(t, m, -1, false)
		th.DoneRQ()
		checkShape(t, m, -1, false)
		if n := gc.LimboLen.Load(); n != 0 {
			t.Fatalf("%d nodes in limbo after Drain with no range query", n)
		}
	})
}
