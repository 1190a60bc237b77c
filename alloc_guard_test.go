package tscds_test

import (
	"runtime/debug"
	"testing"

	"tscds"
)

// TestPooledUpdatePathAllocFree pins the tentpole's core claim: with
// Config.Alloc = AllocPool, a steady-state insert+delete churn on the
// EBR skip list performs ZERO heap allocations per operation — nodes
// come from the epoch-fed free lists, limbo wrappers from the manager's
// wrapper pool, and the label machinery is allocation-free. Any new
// allocation on the update path (a closure, a boxed value, a forgotten
// pooled constructor) fails this test.
func TestPooledUpdatePathAllocFree(t *testing.T) {
	m, err := tscds.New(tscds.SkipList, tscds.EBRRQ, tscds.Config{
		Source:     tscds.Logical,
		MaxThreads: 4,
		Alloc:      tscds.AllocPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Release()

	// GC off for the measurement: a collection mid-run would not change
	// the alloc count but could steal sync.Pool contents and force
	// refill misses.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Warm up: churn enough keys that the free lists are primed and the
	// prune cadence (retire -> limbo -> recycle) reaches steady state.
	for i := uint64(1); i <= 2000; i++ {
		m.Insert(th, i, i)
	}
	for i := uint64(1); i <= 2000; i++ {
		m.Delete(th, i)
	}
	m.Drain()

	key := uint64(5000)
	n := testing.AllocsPerRun(2000, func() {
		m.Insert(th, key, 1)
		m.Delete(th, key)
		key++
	})
	if n != 0 {
		t.Fatalf("pooled insert+delete pair allocates %.2f objects, want 0", n)
	}
}

// TestEBRRangeQueryAllocFree: an EBR-RQ range query collects straight
// into the caller's buffer. With capacity for the result it allocates
// nothing — no accumulator map, no closure on the limbo walk, no sort
// scratch — on all three EBR-RQ structures, flat and sharded, with
// retired nodes sitting in limbo to be walked.
func TestEBRRangeQueryAllocFree(t *testing.T) {
	build := map[string]func(s tscds.Structure, cfg tscds.Config) (tscds.Map, error){
		"flat": func(s tscds.Structure, cfg tscds.Config) (tscds.Map, error) {
			return tscds.New(s, tscds.EBRRQ, cfg)
		},
		"sharded": func(s tscds.Structure, cfg tscds.Config) (tscds.Map, error) {
			return tscds.NewSharded(s, tscds.EBRRQ, 4, cfg)
		},
	}
	for _, s := range []tscds.Structure{tscds.BST, tscds.Citrus, tscds.SkipList} {
		for shape, mk := range build {
			m, err := mk(s, tscds.Config{Source: tscds.Logical, MaxThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 4000; i++ {
				m.Insert(th, i*7919%4000, i)
			}
			for i := uint64(0); i < 4000; i += 3 {
				m.Delete(th, i) // leaves a limbo population behind
			}
			buf := make([]tscds.KV, 0, 1024)
			var got int
			n := testing.AllocsPerRun(200, func() {
				got = len(m.RangeQuery(th, 1000, 1999, buf))
			})
			if got < 600 {
				t.Fatalf("%v %s: range query returned %d pairs, want about 666", s, shape, got)
			}
			if n != 0 {
				t.Errorf("%v %s: RangeQuery into a caller buffer allocates %.1f objects, want 0", s, shape, n)
			}
			th.Release()
		}
	}
}
