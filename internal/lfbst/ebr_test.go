package lfbst

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/obs"
)

// Point reads follow the labels, not reachability. A leaf whose deletion is
// labeled but not yet spliced out (the mark's label, then the splice) is
// gone for Contains as for a range query bounded at or after the label. A
// leaf linked but not yet labeled (the child CAS, then its inserter's
// label) counts once labeled: a point read or a failing Insert helps the
// label in first.
func TestEBRPointReadsFollowLabels(t *testing.T) {
	eachTree(t, 2, nil, func(t *testing.T, tr *EBRTree, reg *core.Registry) {
		a := reg.MustRegister()
		tr.Insert(a, 5, 50)
		tr.Insert(a, 7, 70)
		five := tr.p.search(tr.root, 5).l
		d := tr.p.Label(-1, &five.l.life.dtime) // marked's label, before the splice
		if tr.Contains(a, 5) {
			t.Error("Contains(5) true for a leaf whose deletion is labeled")
		}
		a.AnnounceRQ(d)
		if got := tr.RangeQueryAt(a, 0, 10, d, nil); len(got) != 1 || got[0].Key != 7 {
			t.Errorf("range at the deletion label = %v, want only 7", got)
		}
		a.DoneRQ()

		seven := tr.p.search(tr.root, 7).l
		seven.l.life.itime.Init() // back between the child CAS and its label
		if tr.Insert(a, 7, 71) {
			t.Fatal("Insert(7) succeeded beside a linked leaf holding 7")
		}
		if seven.l.life.itime.Get() == core.Pending {
			t.Fatal("Insert(7) failed against a leaf whose insertion it left unlabeled")
		}
		seven.l.life.itime.Init()
		if !tr.Contains(a, 7) || seven.l.life.itime.Get() == core.Pending {
			t.Fatalf("Contains(7) on an unlabeled leaf: want true, and the label helped in")
		}
	})
}

// The replaced-leaf rule (DESIGN §7). A delete attempt retires leaf l and
// fails; a neighbour's insert then replaces l by a copy. (i) A point read
// that reached l before the copy answers present; (iii) a snapshot between
// the copy and the key's deletion holds the key once, though l (in limbo)
// and the copy (in the tree) are both offered; (ii) after the copy's
// deletion no snapshot holds it, l's limbo entry included; (iv) Drain
// empties limbo. In pool mode l is not recycled — the copy reads l's
// lifetime — while the copy, once pruned, is.
func TestEBRReplacedLeaf(t *testing.T) {
	for _, mode := range []core.AllocMode{core.AllocGC, core.AllocPool} {
		t.Run(mode.String(), func(t *testing.T) {
			reg := core.NewRegistry(2)
			var ps obs.PoolStats
			tr, err := NewEBR(core.New(core.Logical), reg, ebrrq.LockBased, core.Hooks{Alloc: mode, PoolStats: &ps})
			if err != nil {
				t.Fatal(err)
			}
			a, q := reg.MustRegister(), reg.MustRegister()
			tr.Insert(a, 10, 100)
			l := tr.p.search(tr.root, 10).l
			tr.p.retire(a, l) // as a Delete attempt does before its flag CAS
			tr.Insert(a, 20, 200)
			c := tr.p.search(tr.root, 10).l
			if c == l || c.l.life != l.l.life {
				t.Fatal("Insert(20) did not replace l by a copy sharing its lifetime")
			}
			if v, ok := tr.p.present(l); !ok || v != 100 {
				t.Errorf("(i) present(l) after the copy = (%d, %v), want (100, true)", v, ok)
			}
			both := []core.KV{{Key: 10, Val: 100}, {Key: 20, Val: 200}}
			if got := tr.RangeQuery(a, 0, 30, nil); !slices.Equal(got, both) {
				t.Errorf("(iii) range between the copy and the delete = %v, want %v", got, both)
			}
			q.BeginRQ()
			tr.p.RQLock(-1)
			s := tr.p.Source().Snapshot()
			tr.p.RQUnlock()
			q.AnnounceRQ(s)
			if !tr.Delete(a, 10) {
				t.Fatal("Delete(10) failed")
			}
			if got := tr.RangeQuery(a, 0, 30, nil); !slices.Equal(got, both[1:]) {
				t.Errorf("(ii) range after the delete = %v, want %v", got, both[1:])
			}
			if _, ok := tr.p.present(l); ok {
				t.Error("(ii) present(l) after the copy's deletion")
			}
			if got := tr.RangeQueryAt(q, 0, 30, s, nil); !slices.Equal(got, both) {
				t.Errorf("(iii) range at a bound before the delete = %v, want %v", got, both)
			}
			q.DoneRQ()
			tr.Drain()
			if n := tr.p.LimboLen(); n != 0 {
				t.Errorf("(iv) %d leaves in limbo after Drain", n)
			}
			if want := map[core.AllocMode]uint64{core.AllocPool: 1}[mode]; ps.Recycled.Load() != want {
				t.Errorf("%d nodes recycled, want %d (the copy, not l)", ps.Recycled.Load(), want)
			}
		})
	}
}

// A point read finishes with the leaf before leaving its epoch: under
// AllocPool a leaf pruned from limbo is recycled and re-keyed at once, and
// a Get that read it outside the epoch could return another key's value.
// Values carry their key in the high half.
func TestEBRPooledGetSeesItsKey(t *testing.T) {
	reg := core.NewRegistry(4)
	tr, err := NewEBR(core.New(core.Logical), reg, ebrrq.LockBased, core.Hooks{Alloc: core.AllocPool})
	if err != nil {
		t.Fatal(err)
	}
	const keys, ops = 64, 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := reg.MustRegister()
			rng := rand.New(rand.NewSource(int64(w)))
			for seq := uint64(0); seq < ops; seq++ {
				k := uint64(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					tr.Insert(th, k, k<<32|seq)
				} else {
					tr.Delete(th, k)
				}
				if seq%1000 == 0 {
					tr.Drain()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		th := reg.MustRegister()
		for k := uint64(0); ; k = (k + 1) % keys {
			select {
			case <-stop:
				return
			default:
			}
			if v, ok := tr.Get(th, k); ok && v>>32 != k {
				t.Errorf("Get(%d) = %#x, a value of key %d", k, v, v>>32)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
}
