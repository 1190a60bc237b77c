package bundle

import (
	"sync"
	"testing"
	"testing/quick"

	"tscds/internal/core"
)

type node struct{ key uint64 }

func TestInitAndPtrAt(t *testing.T) {
	n := &node{key: 1}
	b := New(n)
	got, ok := b.PtrAt(0)
	if !ok || got != n {
		t.Fatalf("PtrAt(0) = (%v,%v), want initial node", got, ok)
	}
	got, ok = b.PtrAt(100)
	if !ok || got != n {
		t.Fatal("PtrAt(100) should still find the initial entry")
	}
}

func TestPrepareFinalizeHistory(t *testing.T) {
	src := core.New(core.Logical)
	n0, n1, n2 := &node{0}, &node{1}, &node{2}
	b := New(n0)

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
		got, ok := b.PtrAt(c.s)
		if !ok || got != c.want {
			t.Fatalf("PtrAt(%d) = %v, want key %d", c.s, got, c.want.key)
		}
	}
}

func TestAbortRestoresHead(t *testing.T) {
	n0, n1 := &node{0}, &node{1}
	b := New(n0)
	e := b.Prepare(n1)
	b.Abort(e)
	if got, _ := b.PtrAt(core.MaxTS); got != n0 {
		t.Fatalf("after abort PtrAt = %v, want original", got)
	}
	if b.Len() != 1 {
		t.Fatalf("len = %d after abort, want 1", b.Len())
	}
}

// A pending entry must block snapshot readers until finalized, and then
// be visible exactly per its label.
func TestPendingBlocksThenResolves(t *testing.T) {
	src := core.New(core.Logical)
	n0, n1 := &node{0}, &node{1}
	b := New(n0)
	s := src.Snapshot()
	e := b.Prepare(n1)
	done := make(chan *node)
	go func() {
		got, _ := b.PtrAt(core.MaxTS) // newest view: must wait for label
		done <- got
	}()
	ts := src.Advance()
	b.Finalize(e, ts)
	if got := <-done; got != n1 {
		t.Fatalf("reader resolved to %v, want new node", got)
	}
	// The old snapshot still sees the old target.
	if got, _ := b.PtrAt(s); got != n0 {
		t.Fatal("old snapshot observed the new entry")
	}
}

// Entry labels must be non-increasing along the history.
func TestHistoryMonotone(t *testing.T) {
	for _, kind := range []core.Kind{core.Logical, core.TSC} {
		src := core.New(kind)
		b := New(&node{0})
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
	b := New(&node{0})
	var snaps []core.TS
	var wants []*node
	for i := uint64(1); i <= 20; i++ {
		snaps = append(snaps, src.Snapshot())
		w, _ := b.PtrAt(snaps[len(snaps)-1])
		wants = append(wants, w)
		e := b.Prepare(&node{i})
		b.Finalize(e, src.Advance())
	}
	before := b.Len()
	b.Truncate(snaps[12])
	if b.Len() >= before {
		t.Fatalf("truncate did not shrink: %d -> %d", before, b.Len())
	}
	for i := 12; i < len(snaps); i++ {
		got, ok := b.PtrAt(snaps[i])
		if !ok || got != wants[i] {
			t.Fatalf("snapshot %d broken after truncate", i)
		}
	}
}

// Truncate leaves nothing reachable through what it detaches: every entry
// of the tail loses its next and its target — an entry embedded in a live
// node would otherwise pin the history below it — and keeps its label,
// which may be the embedding node's own. Entries at and above the cut are
// untouched: a read at any bound at or above the cut answers as before.
// The chain mixes caller-owned and allocated entries, as the skip list's.
func TestTruncateReleasesDetachedTail(t *testing.T) {
	src := core.New(core.Logical)
	b := &Bundle[node]{}
	b.Finalize(b.InitPending(&node{0}), 0)
	var entries []*Entry[node]
	var labels, snaps []core.TS
	var wants []*node
	for i := uint64(1); i <= 12; i++ {
		n := &node{i}
		e := new(Entry[node])
		if i%2 == 0 {
			e = b.Prepare(n)
		} else {
			b.PrepareWith(e, n)
		}
		ts := src.Advance()
		b.Finalize(e, ts)
		entries, labels = append(entries, e), append(labels, ts)
		snaps, wants = append(snaps, src.Peek()), append(wants, n)
	}
	const cut = 7 // entries[cut] is the newest labeled at or before the bound
	if d := b.Truncate(snaps[cut]); d != cut+1 {
		t.Fatalf("Truncate dropped %d entries, want %d", d, cut+1)
	}
	for i, e := range entries {
		if e.TS() != labels[i] {
			t.Fatalf("entry %d: label %d became %d", i, labels[i], e.TS())
		}
		if detached := i < cut; detached != (e.Ptr() == nil) || (detached && e.Next() != nil) {
			t.Fatalf("entry %d (cut at %d): ptr %v next %v", i, cut, e.Ptr(), e.Next())
		}
	}
	if entries[cut].Next() != nil || b.Len() != len(entries)-cut {
		t.Fatalf("chain holds %d entries below a cut entry with next %v", b.Len(), entries[cut].Next())
	}
	for i := cut; i < len(snaps); i++ {
		for _, s := range []core.TS{labels[i], snaps[i]} {
			if got, ok := b.PtrAt(s); !ok || got != wants[i] {
				t.Fatalf("PtrAt(%d) after the cut = (%v, %v), want key %d", s, got, ok, wants[i].key)
			}
		}
	}
}

func TestTruncateNoActiveRQ(t *testing.T) {
	src := core.New(core.Logical)
	b := New(&node{0})
	for i := uint64(1); i <= 10; i++ {
		e := b.Prepare(&node{i})
		b.Finalize(e, src.Advance())
	}
	b.Truncate(core.Pending)
	if n := b.Len(); n != 1 {
		t.Fatalf("len = %d after full truncate, want 1", n)
	}
}

// Property: for any sequence of updates, PtrAt(s) returns the target
// finalized by the last update whose label is <= s.
func TestPtrAtProperty(t *testing.T) {
	f := func(nVals []uint64) bool {
		if len(nVals) > 40 {
			nVals = nVals[:40]
		}
		src := core.New(core.Logical)
		init := &node{^uint64(0)}
		b := New(init)
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
			got, ok := b.PtrAt(r.ts)
			if !ok || got != r.ptr {
				return false
			}
			if i+1 < len(hist) {
				got, ok = b.PtrAt(hist[i+1].ts - 1)
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
	bd := New(&node{0})
	n := &node{1}
	for i := 0; i < b.N; i++ {
		e := bd.Prepare(n)
		bd.Finalize(e, src.Advance())
		if i%64 == 0 {
			bd.Truncate(core.Pending)
		}
	}
}

func BenchmarkPrepareFinalizeTSC(b *testing.B) {
	src := core.New(core.TSC)
	bd := New(&node{0})
	n := &node{1}
	for i := 0; i < b.N; i++ {
		e := bd.Prepare(n)
		bd.Finalize(e, src.Advance())
		if i%64 == 0 {
			bd.Truncate(core.Pending)
		}
	}
}

func TestInitPendingBlocksUntilFinalized(t *testing.T) {
	src := core.New(core.Logical)
	succ := &node{9}
	b := &Bundle[node]{}
	e := b.InitPending(succ)
	done := make(chan *node)
	go func() {
		got, _ := b.PtrAt(core.MaxTS)
		done <- got
	}()
	ts := src.Advance()
	b.Finalize(e, ts)
	if got := <-done; got != succ {
		t.Fatalf("reader resolved %v", got)
	}
	// A snapshot older than the node's insertion sees no entry at all —
	// the signal skip-list range queries use to reject an index landing.
	if _, ok := b.PtrAt(ts - 1); ok {
		t.Fatal("pre-insertion snapshot found an entry")
	}
}

func TestPtrAtOnEmptyHistory(t *testing.T) {
	b := &Bundle[node]{}
	if _, ok := b.PtrAt(5); ok {
		t.Fatal("empty bundle returned an entry")
	}
}

func TestTruncateOnPendingHeadIsNoop(t *testing.T) {
	b := New(&node{1})
	e := b.Prepare(&node{2})
	before := b.Len()
	b.Truncate(core.Pending)
	if b.Len() != before {
		t.Fatal("truncate touched a bundle with a pending head")
	}
	b.Finalize(e, 7)
}

func TestConcurrentTruncateAndReaders(t *testing.T) {
	src := core.New(core.Logical)
	b := New(&node{0})
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
			if _, ok := b.PtrAt(s); !ok {
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
					b.Truncate(reg.MinActiveRQ())
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
}
