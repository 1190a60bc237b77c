package pool

import (
	"sync"
	"testing"

	"tscds/internal/core"
	"tscds/internal/obs"
)

type thing struct {
	a, b uint64
}

func TestNilPoolIsGCMode(t *testing.T) {
	var p *Pool[thing]
	x := p.Get(0)
	if x == nil {
		t.Fatal("nil pool Get returned nil")
	}
	if *x != (thing{}) {
		t.Fatalf("nil pool Get returned non-zero value %+v", *x)
	}
	p.Put(0, x) // must not panic
}

func TestNewReturnsNilForGCMode(t *testing.T) {
	if p := New[thing](4, core.AllocGC, nil); p != nil {
		t.Fatal("New(GC) should return nil so the nil fast path applies")
	}
	for _, m := range []core.AllocMode{2, 42} {
		if p := New[thing](4, m, nil); p != nil {
			t.Fatalf("New(%d) should return nil: an unknown mode is GC", int(m))
		}
	}
}

func TestPoolReusesPutNodes(t *testing.T) {
	var st obs.PoolStats
	p := New[thing](2, core.AllocPool, &st)
	a := p.Get(0)
	if st.Misses.Load() != 1 {
		t.Fatalf("cold Get: misses = %d, want 1", st.Misses.Load())
	}
	a.a, a.b = 7, 9
	p.Put(0, a)
	if st.Recycled.Load() != 1 {
		t.Fatalf("recycled = %d, want 1", st.Recycled.Load())
	}
	b := p.Get(0)
	if b != a {
		t.Fatal("Get after Put did not reuse the freed node")
	}
	if st.Hits.Load() != 1 {
		t.Fatalf("warm Get: hits = %d, want 1", st.Hits.Load())
	}
	// Reused memory is NOT zeroed; that is the caller's contract.
	if b.a != 7 || b.b != 9 {
		t.Fatalf("pool unexpectedly zeroed reused node: %+v", *b)
	}
}

func TestPoolLIFOOrder(t *testing.T) {
	p := New[thing](1, core.AllocPool, nil)
	a, b := p.Get(0), p.Get(0)
	p.Put(0, a)
	p.Put(0, b)
	if got := p.Get(0); got != b {
		t.Fatal("free list is not LIFO: most recently freed node should come back first")
	}
	if got := p.Get(0); got != a {
		t.Fatal("second Get should return the earlier freed node")
	}
}

func TestSharedPoolRoutesForeignTid(t *testing.T) {
	var st obs.PoolStats
	p := New[thing](2, core.AllocPool, &st)
	x := p.Get(0)
	// tid -1 models a recycler with no slot (DrainAll): the node must
	// land somewhere another thread can reuse it, not be lost.
	p.Put(-1, x)
	if st.Recycled.Load() != 1 {
		t.Fatalf("recycled = %d, want 1", st.Recycled.Load())
	}
	// Routing, not retention: the node went to the shared tier (no
	// thread's local free list holds it), and sync.Pool may keep or drop
	// it — under -race it drops a quarter of Puts on purpose. Either way
	// the next Get is served: x again, or a fresh node.
	for i := range p.slots {
		if n := len(p.slots[i].free); n != 0 {
			t.Fatalf("slot %d holds %d local nodes after a foreign-tid Put", i, n)
		}
	}
	if got := p.Get(1); got == nil {
		t.Fatal("Get(1) returned nil after a foreign-tid Put")
	} else if got != x && st.Misses.Load() != 2 {
		t.Fatalf("Get(1) returned a fresh node without counting a miss (misses = %d)", st.Misses.Load())
	}
}

func TestConcurrentOwnersAndSharedOverflow(t *testing.T) {
	const threads = 4
	const rounds = 5000
	p := New[thing](threads, core.AllocPool, nil)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			live := make([]*thing, 0, 8)
			for i := 0; i < rounds; i++ {
				x := p.Get(tid)
				x.a = uint64(tid)
				live = append(live, x)
				if len(live) == cap(live) {
					for _, y := range live {
						if y.a != uint64(tid) {
							// A node handed to two threads at once would
							// show a foreign owner id here.
							t.Errorf("node shared across threads: owner %d saw %d", tid, y.a)
							return
						}
						p.Put(tid, y)
					}
					live = live[:0]
				}
			}
		}(tid)
	}
	wg.Wait()
}
