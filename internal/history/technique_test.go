package history

import (
	"sync"
	"sync/atomic"
	"testing"

	"tscds/internal/core"
	"tscds/internal/obs"
)

// An update only records the chains it extended: nothing is cut until an
// operation ends with trimBatch chains recorded, and that flush cuts them
// all against a bound taken then, so every chain keeps exactly its newest
// entry when no query is active, and the GC counter sees each drop once.
// A query reserved before the flush holds what it reads; Drain cuts what
// every thread recorded since its last flush.
func TestTrimDefersToOperationEnd(t *testing.T) {
	src := core.New(core.Logical)
	reg := core.NewRegistry(2)
	gc := new(obs.GC)
	tq := NewTechnique[node](src, reg, Bundling, core.Hooks{GC: gc})
	w, q := reg.MustRegister(), reg.MustRegister()
	chains := make([]*Chain[*node], trimBatch)
	update := func(c *Chain[*node], key uint64) {
		tq.Enter(w.ID)
		c.Finalize(c.Prepare(&node{key}), src.Advance())
		tq.Trim(w, c)
		tq.Exit(w.ID)
	}
	for i := range chains {
		chains[i] = new(Chain[*node])
		chains[i].Init(&node{0})
		update(chains[i], 1)
		if want := 2; i < trimBatch-1 && chains[0].Len() != want {
			t.Fatalf("after %d updates the first chain holds %d entries, want %d until the flush", i+1, chains[0].Len(), want)
		}
	}
	for i, c := range chains {
		if c.Len() != 1 {
			t.Fatalf("chain %d holds %d entries after the flush, want 1", i, c.Len())
		}
	}
	if got := gc.BundleEntriesPruned.Load(); got != trimBatch {
		t.Fatalf("pruned counter %d, want %d", got, trimBatch)
	}

	// A query reserved before the next flush keeps the entry it reads.
	q.BeginRQ()
	s := src.Snapshot()
	q.AnnounceRQ(s)
	for _, c := range chains {
		update(c, 2)
	}
	for i, c := range chains {
		if got, ok, _, _ := c.WaitAt(s); !ok || got.key != 1 || c.Len() != 2 {
			t.Fatalf("chain %d: read at the held bound %d = (%v, %v) over %d entries", i, s, got, ok, c.Len())
		}
	}
	q.DoneRQ()

	// Fewer than trimBatch records wait for Drain.
	update(chains[0], 3)
	if chains[0].Len() != 3 {
		t.Fatalf("an unflushed record was cut: %d entries", chains[0].Len())
	}
	tq.Drain()
	for i, c := range chains {
		if c.Len() != 1 {
			t.Fatalf("chain %d holds %d entries after Drain, want 1", i, c.Len())
		}
	}
}

// Drain may run beside updates (the facade's Len drains, and so do tests
// that poll it): it cuts the chains a buffer's owner is still recording
// and flushing. Every drop is counted once, whoever cut it, and a final
// Drain leaves each chain its newest entry.
func TestDrainBesideTrims(t *testing.T) {
	const workers, chains, updates = 2, 8, 4000
	src := core.New(core.Logical)
	reg := core.NewRegistry(workers)
	gc := new(obs.GC)
	tq := NewTechnique[node](src, reg, Bundling, core.Hooks{GC: gc})
	var cs [workers][chains]Chain[*node]
	var wg sync.WaitGroup
	var done atomic.Int32
	for w := range workers {
		th := reg.MustRegister()
		for i := range cs[w] {
			cs[w][i].Init(&node{0})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Add(1)
			for i := range updates {
				c := &cs[w][i%chains] // one writer per chain, as a lock gives
				tq.Enter(th.ID)
				c.Finalize(c.Prepare(&node{uint64(i)}), src.Advance())
				tq.Trim(th, c)
				tq.Exit(th.ID)
			}
		}()
	}
	for done.Load() < workers {
		tq.Drain()
	}
	wg.Wait()
	tq.Drain()
	for w := range cs {
		for i := range cs[w] {
			if n := cs[w][i].Len(); n != 1 {
				t.Fatalf("chain %d of worker %d holds %d entries after the final Drain", i, w, n)
			}
		}
	}
	if got := gc.BundleEntriesPruned.Load(); got != workers*updates {
		t.Fatalf("pruned counter %d, want one per update (%d)", got, workers*updates)
	}
}
