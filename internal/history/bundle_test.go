package history

import (
	"sync"
	"testing"
	"testing/quick"

	"tscds/internal/core"
)

func TestInitAndWaitAt(t *testing.T) {
	n := &node{key: 1}
	b := chainOf(n)
	got, ok, _, _ := b.WaitAt(0)
	if !ok || got != n {
		t.Fatalf("WaitAt(0) = (%v,%v), want initial node", got, ok)
	}
	got, ok, _, _ = b.WaitAt(100)
	if !ok || got != n {
		t.Fatal("WaitAt(100) should still find the initial entry")
	}
}

func TestPrepareFinalizeHistory(t *testing.T) {
	src := core.New(core.Logical)
	n0, n1, n2 := &node{0}, &node{1}, &node{2}
	b := chainOf(n0)

	s0 := src.Snapshot()
	e := b.Prepare(n1)
	b.Finalize(e, src.Advance())
	s1 := src.Snapshot()
	e = b.Prepare(n2)
	b.Finalize(e, src.Advance())
	s2 := src.Snapshot()

	for _, c := range []struct {
		s    core.TS
		want *node
	}{{s0, n0}, {s1, n1}, {s2, n2}} {
		got, ok, _, _ := b.WaitAt(c.s)
		if !ok || got != c.want {
			t.Fatalf("WaitAt(%d) = %v, want key %d", c.s, got, c.want.key)
		}
	}
}

// A pending entry must block snapshot readers until finalized, and then
// be visible exactly per its label.
func TestPendingBlocksThenResolves(t *testing.T) {
	src := core.New(core.Logical)
	n0, n1 := &node{0}, &node{1}
	b := chainOf(n0)
	s := src.Snapshot()
	e := b.Prepare(n1)
	done := make(chan *node)
	go func() {
		got, _, _, _ := b.WaitAt(core.MaxTS) // newest view: must wait for label
		done <- got
	}()
	ts := src.Advance()
	b.Finalize(e, ts)
	if got := <-done; got != n1 {
		t.Fatalf("reader resolved to %v, want new node", got)
	}
	// The old snapshot still sees the old target.
	if got, _, _, _ := b.WaitAt(s); got != n0 {
		t.Fatal("old snapshot observed the new entry")
	}
}

// Entry labels must be non-increasing along the history.
func TestHistoryMonotone(t *testing.T) {
	for _, kind := range []core.Kind{core.Logical, core.TSC} {
		src := core.New(kind)
		b := chainOf(&node{0})
		var mu sync.Mutex // stands in for the structure's link lock
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					mu.Lock()
					e := b.Prepare(&node{uint64(g*10000 + i)})
					b.Finalize(e, src.Advance())
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		prev := core.Pending
		for e := b.Head(); e != nil; e = e.next.Load() {
			ts := e.TS()
			if ts == core.Pending {
				t.Fatal("pending entry after all updates finished")
			}
			if ts > prev {
				t.Fatalf("%v: history not monotone: %d above %d", kind, prev, ts)
			}
			prev = ts
		}
	}
}

func TestTruncatePreservesOldestActiveSnapshot(t *testing.T) {
	src := core.New(core.Logical)
	b := chainOf(&node{0})
	var snaps []core.TS
	var wants []*node
	for i := uint64(1); i <= 20; i++ {
		snaps = append(snaps, src.Snapshot())
		w, _, _, _ := b.WaitAt(snaps[len(snaps)-1])
		wants = append(wants, w)
		e := b.Prepare(&node{i})
		b.Finalize(e, src.Advance())
	}
	before := b.Len()
	b.Truncate(snaps[12], Bundling)
	if b.Len() >= before {
		t.Fatalf("truncate did not shrink: %d -> %d", before, b.Len())
	}
	for i := 12; i < len(snaps); i++ {
		got, ok, _, _ := b.WaitAt(snaps[i])
		if !ok || got != wants[i] {
			t.Fatalf("snapshot %d broken after truncate", i)
		}
	}
}

// Property: for any sequence of updates, WaitAt(s) returns the target
// finalized by the last update whose label is <= s.
func TestWaitAtProperty(t *testing.T) {
	f := func(nVals []uint64) bool {
		if len(nVals) > 40 {
			nVals = nVals[:40]
		}
		src := core.New(core.Logical)
		init := &node{^uint64(0)}
		b := chainOf(init)
		type rec struct {
			ts  core.TS
			ptr *node
		}
		hist := []rec{{0, init}}
		for _, v := range nVals {
			n := &node{v}
			e := b.Prepare(n)
			ts := src.Advance()
			b.Finalize(e, ts)
			hist = append(hist, rec{ts, n})
		}
		// Check at every label boundary and in between.
		for i, r := range hist {
			got, ok, _, _ := b.WaitAt(r.ts)
			if !ok || got != r.ptr {
				return false
			}
			if i+1 < len(hist) {
				got, ok, _, _ = b.WaitAt(hist[i+1].ts - 1)
				if !ok || got != r.ptr {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPrepareFinalizeLogical(b *testing.B) {
	src := core.New(core.Logical)
	bd := chainOf(&node{0})
	n := &node{1}
	for i := 0; i < b.N; i++ {
		e := bd.Prepare(n)
		bd.Finalize(e, src.Advance())
		if i%64 == 0 {
			bd.Truncate(core.Pending, Bundling)
		}
	}
}

func BenchmarkPrepareFinalizeTSC(b *testing.B) {
	src := core.New(core.TSC)
	bd := chainOf(&node{0})
	n := &node{1}
	for i := 0; i < b.N; i++ {
		e := bd.Prepare(n)
		bd.Finalize(e, src.Advance())
		if i%64 == 0 {
			bd.Truncate(core.Pending, Bundling)
		}
	}
}

func TestInitPendingBlocksUntilFinalized(t *testing.T) {
	src := core.New(core.Logical)
	succ := &node{9}
	b := new(Chain[*node])
	e := new(Entry[*node])
	b.InitPendingWith(e, succ)
	done := make(chan *node)
	go func() {
		got, _, _, _ := b.WaitAt(core.MaxTS)
		done <- got
	}()
	ts := src.Advance()
	b.Finalize(e, ts)
	if got := <-done; got != succ {
		t.Fatalf("reader resolved %v", got)
	}
	// A snapshot older than the node's insertion sees no entry at all —
	// the signal skip-list range queries use to reject an index landing.
	if _, ok, _, _ := b.WaitAt(ts - 1); ok {
		t.Fatal("pre-insertion snapshot found an entry")
	}
}

func TestWaitAtOnEmptyChain(t *testing.T) {
	b := new(Chain[*node])
	if _, ok, _, _ := b.WaitAt(5); ok {
		t.Fatal("empty bundle returned an entry")
	}
}

func TestTruncateOnPendingHeadIsNoop(t *testing.T) {
	b := chainOf(&node{1})
	e := b.Prepare(&node{2})
	before := b.Len()
	b.Truncate(core.Pending, Bundling)
	if b.Len() != before {
		t.Fatal("truncate touched a bundle with a pending head")
	}
	b.Finalize(e, 7)
}

func TestConcurrentTruncateAndReaders(t *testing.T) {
	src := core.New(core.Logical)
	b := chainOf(&node{0})
	reg := core.NewRegistry(4)
	stop := make(chan struct{})
	var wg, readers sync.WaitGroup
	// Reader repeatedly takes announced snapshots and reads at them.
	readers.Add(1)
	go func() {
		defer readers.Done()
		th := reg.MustRegister()
		defer th.Release()
		for {
			select {
			case <-stop:
				return
			default:
			}
			th.BeginRQ()
			s := src.Peek()
			th.AnnounceRQ(s)
			if _, ok, _, _ := b.WaitAt(s); !ok {
				t.Error("announced snapshot lost its entry to truncation")
				th.DoneRQ()
				return
			}
			th.DoneRQ()
		}
	}()
	var mu sync.Mutex
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				mu.Lock()
				e := b.Prepare(&node{uint64(i)})
				b.Finalize(e, src.Advance())
				if i%16 == 0 {
					b.Truncate(reg.MinActiveRQ(), Bundling)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
}
