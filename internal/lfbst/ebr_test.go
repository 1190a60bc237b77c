package lfbst

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/ebrrq/limbotest"
)

func newEBRTree(t *testing.T, kind core.Kind, variant ebrrq.Variant, threads int) (*EBRTree, *core.Registry) {
	t.Helper()
	reg := core.NewRegistry(threads)
	tr, err := NewEBR(core.New(kind), reg, variant)
	if err != nil {
		t.Fatal(err)
	}
	return tr, reg
}

func ebrVariants(t *testing.T) map[string]func(int) (*EBRTree, *core.Registry) {
	return map[string]func(int) (*EBRTree, *core.Registry){
		"lock-logical": func(n int) (*EBRTree, *core.Registry) {
			return newEBRTree(t, core.Logical, ebrrq.LockBased, n)
		},
		"lock-tsc": func(n int) (*EBRTree, *core.Registry) {
			return newEBRTree(t, core.TSC, ebrrq.LockBased, n)
		},
		"lockfree-logical": func(n int) (*EBRTree, *core.Registry) {
			return newEBRTree(t, core.Logical, ebrrq.LockFree, n)
		},
	}
}

func TestEBRBSTRejectsLockFreeTSC(t *testing.T) {
	reg := core.NewRegistry(1)
	if _, err := NewEBR(core.New(core.TSC), reg, ebrrq.LockFree); !errors.Is(err, ebrrq.ErrRequiresAddress) {
		t.Fatalf("err = %v, want ErrRequiresAddress", err)
	}
}

func TestEBRBSTBasicOps(t *testing.T) {
	for name, mk := range ebrVariants(t) {
		t.Run(name, func(t *testing.T) {
			tr, reg := mk(2)
			th := reg.MustRegister()
			if tr.Contains(th, 5) || tr.Delete(th, 5) {
				t.Fatal("empty tree misbehaved")
			}
			if !tr.Insert(th, 5, 50) || tr.Insert(th, 5, 51) {
				t.Fatal("insert semantics")
			}
			if v, ok := tr.Get(th, 5); !ok || v != 50 {
				t.Fatalf("Get = (%d,%v)", v, ok)
			}
			if !tr.Delete(th, 5) || tr.Contains(th, 5) || tr.Delete(th, 5) {
				t.Fatal("delete semantics")
			}
			// Reinsertion after deletion must work (fresh leaf).
			if !tr.Insert(th, 5, 52) {
				t.Fatal("reinsert failed")
			}
			if v, _ := tr.Get(th, 5); v != 52 {
				t.Fatalf("reinserted value = %d", v)
			}
		})
	}
}

func TestEBRBSTSequentialModel(t *testing.T) {
	for name, mk := range ebrVariants(t) {
		t.Run(name, func(t *testing.T) {
			tr, reg := mk(2)
			th := reg.MustRegister()
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(77))
			for i := 0; i < 12000; i++ {
				k := uint64(rng.Intn(250))
				switch rng.Intn(4) {
				case 0, 1:
					_, exists := model[k]
					if got := tr.Insert(th, k, k+9); got == exists {
						t.Fatalf("op %d: Insert(%d)=%v exists=%v", i, k, got, exists)
					}
					if !exists {
						model[k] = k + 9
					}
				case 2:
					_, exists := model[k]
					if got := tr.Delete(th, k); got != exists {
						t.Fatalf("op %d: Delete(%d)=%v exists=%v", i, k, got, exists)
					}
					delete(model, k)
				default:
					_, exists := model[k]
					if got := tr.Contains(th, k); got != exists {
						t.Fatalf("op %d: Contains(%d)=%v want %v", i, k, got, exists)
					}
				}
			}
			if tr.Len() != len(model) {
				t.Fatalf("Len=%d model=%d", tr.Len(), len(model))
			}
			got := tr.RangeQuery(th, 0, MaxKey, nil)
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

func TestEBRBSTConcurrentStriped(t *testing.T) {
	for name, mk := range ebrVariants(t) {
		t.Run(name, func(t *testing.T) {
			tr, reg := mk(8)
			const gs = 4
			const per = 1000
			var wg sync.WaitGroup
			for g := 0; g < gs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					th := reg.MustRegister()
					defer th.Release()
					base := uint64(g * 100_000)
					for i := uint64(0); i < per; i++ {
						if !tr.Insert(th, base+i, i) {
							t.Errorf("insert %d failed", base+i)
							return
						}
					}
					for i := uint64(0); i < per; i += 2 {
						if !tr.Delete(th, base+i) {
							t.Errorf("delete %d failed", base+i)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if n := tr.Len(); n != gs*per/2 {
				t.Fatalf("Len=%d want %d", n, gs*per/2)
			}
		})
	}
}

// Snapshot prefix probe, the linearizability check, against the
// lock-free labeling variant specifically (DCSS under snapshot storms).
func TestEBRBSTSnapshotPrefix(t *testing.T) {
	for name, mk := range ebrVariants(t) {
		t.Run(name, func(t *testing.T) {
			tr, reg := mk(4)
			const n = 2500
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := reg.MustRegister()
				defer th.Release()
				for k := uint64(1); k <= n; k++ {
					tr.Insert(th, k, k)
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := reg.MustRegister()
				defer th.Release()
				for {
					got := tr.RangeQuery(th, 1, n, nil)
					keys := make([]uint64, len(got))
					for i, kv := range got {
						keys[i] = kv.Key
					}
					sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
					for i, k := range keys {
						if k != uint64(i+1) {
							t.Errorf("snapshot gap at %d: %d", i, k)
							return
						}
					}
					if len(keys) == n {
						return
					}
				}
			}()
			wg.Wait()
		})
	}
}

// Deleted-during-query keys must be captured from limbo: start a query
// while a deleter sweeps; every snapshot must be a suffix.
func TestEBRBSTSnapshotSuffixViaLimbo(t *testing.T) {
	tr, reg := newEBRTree(t, core.Logical, ebrrq.LockFree, 4)
	const n = 2500
	{
		th := reg.MustRegister()
		perm := rand.New(rand.NewSource(5)).Perm(n)
		for _, i := range perm {
			tr.Insert(th, uint64(i+1), uint64(i+1))
		}
		th.Release()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := reg.MustRegister()
		defer th.Release()
		for k := uint64(1); k <= n; k++ {
			tr.Delete(th, k)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := reg.MustRegister()
		defer th.Release()
		for {
			got := tr.RangeQuery(th, 1, n, nil)
			if len(got) == 0 {
				return
			}
			keys := make([]uint64, len(got))
			for i, kv := range got {
				keys[i] = kv.Key
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for i, k := range keys {
				if k != keys[0]+uint64(i) {
					t.Errorf("snapshot not a suffix at %d: %d (first %d)", i, k, keys[0])
					return
				}
			}
			if keys[len(keys)-1] != n {
				t.Errorf("suffix missing tail %d", keys[len(keys)-1])
				return
			}
		}
	}()
	wg.Wait()
}

func TestEBRBSTLimboBounded(t *testing.T) {
	tr, reg := newEBRTree(t, core.Logical, ebrrq.LockBased, 2)
	th := reg.MustRegister()
	for i := 0; i < 20000; i++ {
		k := uint64(i % 40)
		tr.Insert(th, k, k)
		tr.Delete(th, k)
	}
	if n := tr.LimboLen(); n > 5000 {
		t.Fatalf("limbo grew unbounded: %d", n)
	}
}

func ebrFields(n *enode) (uint64, uint64, *ebrrq.Label, *ebrrq.Label) {
	return n.key, n.val, &n.itime, &n.dtime
}

// The failed-delete-attempt case, under contention: Delete retires its
// leaf before the flag CAS, the attempt fails, the leaf survives in the
// tree with an entry in limbo. The early exit of the limbo walk
// (ebrrq.Collector.AddLimbo) and epoch's suffix pruning need deletion
// labels that never increase down a list all the same, and here helpers
// on other threads write many of them. What keeps the order is checked:
// by the time a Delete call returns, every leaf it retired has its
// deletion label (failed attempts retry until someone labels the leaf),
// so no Pending entry survives in limbo at quiescence, and at no bound
// does the early exit lose a leaf the full walk finds.
func TestEBRBSTLimboLabeledAtQuiescence(t *testing.T) {
	for name, mk := range map[string]ebrrq.Variant{"lock": ebrrq.LockBased, "lockfree": ebrrq.LockFree} {
		tr, reg := newEBRTree(t, core.Logical, mk, 12)
		limbotest.Churn(tr, reg, 6, 1000)
		pending := 0
		tr.em.WalkLimbo(func(n *enode) bool {
			if !n.dtime.Assigned() {
				pending++
			}
			return true
		})
		if pending != 0 {
			t.Fatalf("%s: %d limbo leaves still unlabeled after every Delete returned", name, pending)
		}
		if lost := limbotest.Lost(tr.em, ebrFields); len(lost) != 0 {
			t.Fatalf("%s: logical-source limbo lists out of order, %d losses, first: %s", name, len(lost), lost[0])
		}
	}
}
