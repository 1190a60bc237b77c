package history

import (
	"runtime"
	"sync"
	"testing"

	"tscds/internal/core"
	"tscds/internal/obs"
)

// An update only records the chains it extended: nothing is cut until an
// operation ends with trimBatch chains recorded, and that flush cuts them
// all against a bound taken then, so every chain keeps exactly its newest
// entry when no query is active, and the GC counter sees each drop once.
// A query reserved before the flush holds what it reads; Cut cuts what a
// flush has not reached yet, and counts it too.
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

	// Fewer than trimBatch records wait for the next flush; Cut cuts them.
	update(chains[0], 3)
	if chains[0].Len() != 3 {
		t.Fatalf("an unflushed record was cut: %d entries", chains[0].Len())
	}
	for i, c := range chains {
		if err := tq.Cut(c); err != nil || c.Len() != 1 {
			t.Fatalf("chain %d holds %d entries after Cut (%v), want 1", i, c.Len(), err)
		}
	}
	if got, want := gc.BundleEntriesPruned.Load(), uint64(2*trimBatch+1); got != want {
		t.Fatalf("pruned counter %d after Cut, want %d", got, want)
	}
}

// A slot's trim buffer has one owner at a time and passes with the slot:
// goroutine A records fewer than trimBatch chains and releases its slot;
// goroutine B, which shares nothing with A but the registry, registers the
// same slot, and its flush cuts A's records with its own. Under -race this
// shows that Release and Register order the owner-only buffer.
func TestTrimBufferHandoff(t *testing.T) {
	src := core.New(core.Logical)
	reg := core.NewRegistry(1)
	gc := new(obs.GC)
	tq := NewTechnique[node](src, reg, Bundling, core.Hooks{GC: gc})
	var chains [trimBatch]Chain[*node]
	for i := range chains {
		chains[i].Init(&node{0})
	}
	record := func(th *core.Thread, cs []Chain[*node]) {
		for i := range cs {
			c := &cs[i]
			tq.Enter(th.ID)
			c.Finalize(c.Prepare(&node{1}), src.Advance())
			tq.Trim(th, c)
			tq.Exit(th.ID)
		}
	}
	a := reg.MustRegister()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		record(a, chains[:trimBatch/2])
		a.Release()
	}()
	go func() {
		defer wg.Done()
		b, err := reg.Register()
		for ; err != nil; b, err = reg.Register() {
			runtime.Gosched()
		}
		defer b.Release()
		record(b, chains[trimBatch/2:])
	}()
	wg.Wait()
	for i := range chains {
		if n := chains[i].Len(); n != 1 {
			t.Fatalf("chain %d holds %d entries after the flush, want 1", i, n)
		}
	}
	if got := gc.BundleEntriesPruned.Load(); got != trimBatch {
		t.Fatalf("pruned counter %d, want %d", got, trimBatch)
	}
}
