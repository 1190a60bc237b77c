package history

import (
	"sync"
	"testing"
	"testing/quick"

	"tscds/internal/core"
)

// chainOf returns a chain initialized to val.
func chainOf[V comparable](val V) *Chain[V] {
	c := new(Chain[V])
	c.Init(val)
	return c
}

func sources() map[string]func() core.Source {
	return map[string]func() core.Source{
		"logical": func() core.Source { return core.New(core.Logical) },
		"tsc":     func() core.Source { return core.New(core.TSC) },
	}
}

func TestInitAndRead(t *testing.T) {
	for name, mk := range sources() {
		t.Run(name, func(t *testing.T) {
			src := mk()
			o := chainOf(42)
			if got := o.Read(src); got != 42 {
				t.Fatalf("Read = %d, want 42", got)
			}
			if o.Head().TS() != 0 {
				t.Fatalf("initial version labeled %d, want 0", o.Head().TS())
			}
		})
	}
}

func TestCASSemantics(t *testing.T) {
	for name, mk := range sources() {
		t.Run(name, func(t *testing.T) {
			src := mk()
			o := chainOf(1)
			if !o.CompareAndSwap(src, 1, 2) {
				t.Fatal("CAS(1,2) failed")
			}
			if o.CompareAndSwap(src, 1, 3) {
				t.Fatal("CAS(1,3) succeeded with stale expected value")
			}
			if got := o.Read(src); got != 2 {
				t.Fatalf("Read = %d, want 2", got)
			}
		})
	}
}

func TestVersionsLabeledAfterCAS(t *testing.T) {
	src := core.New(core.Logical)
	o := chainOf(0)
	for i := 1; i <= 5; i++ {
		o.CompareAndSwap(src, i-1, i)
	}
	for v := o.Head(); v != nil; v = v.next.Load() {
		if v.TS() == core.Pending {
			t.Fatal("reachable version left pending after CAS returned")
		}
	}
}

// Chain invariant: timestamps are non-increasing from head to tail.
func TestChainMonotone(t *testing.T) {
	for name, mk := range sources() {
		t.Run(name, func(t *testing.T) {
			src := mk()
			o := chainOf(uint64(0))
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2000; i++ {
						cur := o.Read(src)
						o.CompareAndSwap(src, cur, cur+1)
					}
				}()
			}
			wg.Wait()
			prev := core.Pending
			for v := o.Head(); v != nil; v = v.next.Load() {
				ts := v.TS()
				if ts == core.Pending {
					t.Fatal("pending version below head")
				}
				if ts > prev {
					t.Fatalf("chain not monotone: %d above %d", prev, ts)
				}
				prev = ts
			}
		})
	}
}

func TestReadAtSequential(t *testing.T) {
	src := core.New(core.Logical)
	o := chainOf(uint64(100))
	type step struct {
		snap core.TS
		want uint64
	}
	var steps []step
	steps = append(steps, step{src.Snapshot(), 100})
	o.Write(src, 200) // labeled with Peek after the snapshot advance
	steps = append(steps, step{src.Snapshot(), 200})
	o.Write(src, 300)
	steps = append(steps, step{src.Snapshot(), 300})
	for i, st := range steps {
		got, ok, _ := o.ReadAt(src, st.snap)
		if !ok || got != st.want {
			t.Fatalf("step %d: ReadAt(%d) = (%d,%v), want %d", i, st.snap, got, ok, st.want)
		}
	}
}

// The closed-snapshot property that makes range queries linearizable:
// once a snapshot bound is taken from a logical source, no later write
// may become visible at that bound.
func TestSnapshotClosedAgainstLaterWrites(t *testing.T) {
	src := core.New(core.Logical)
	o := chainOf(uint64(1))
	s := src.Snapshot()
	o.Write(src, 2)
	got, ok, _ := o.ReadAt(src, s)
	if !ok || got != 1 {
		t.Fatalf("snapshot at %d observed later write: got %d", s, got)
	}
}

// Single ascending writer; concurrent snapshot readers must observe a
// value that was current at some instant (monotone consistency): for
// snapshots s1 <= s2, values v1 <= v2.
func TestSnapshotMonotoneUnderConcurrency(t *testing.T) {
	for name, mk := range sources() {
		t.Run(name, func(t *testing.T) {
			src := mk()
			o := chainOf(uint64(0))
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := uint64(1); i <= 20000; i++ {
					o.Write(src, i)
				}
			}()
			var lastSnap core.TS
			var lastVal uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				s := src.Snapshot()
				v, ok, _ := o.ReadAt(src, s)
				if !ok {
					t.Fatal("ReadAt found no version")
				}
				if s >= lastSnap && v < lastVal {
					t.Fatalf("snapshots went backwards: (%d,%d) then (%d,%d)", lastSnap, lastVal, s, v)
				}
				lastSnap, lastVal = s, v
			}
		})
	}
}

func TestConcurrentCASNoLostUpdates(t *testing.T) {
	src := core.New(core.TSC)
	o := chainOf(uint64(0))
	const gs = 8
	const per = 3000
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for {
					cur := o.Read(src)
					if o.CompareAndSwap(src, cur, cur+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := o.Read(src); got != gs*per {
		t.Fatalf("final = %d, want %d", got, gs*per)
	}
}

func TestTruncateKeepsNeededVersion(t *testing.T) {
	src := core.New(core.Logical)
	o := chainOf(uint64(0))
	var snaps []core.TS
	for i := uint64(1); i <= 20; i++ {
		snaps = append(snaps, src.Snapshot())
		o.Write(src, i)
	}
	before := o.Len()
	if before < 20 {
		t.Fatalf("chain unexpectedly short: %d", before)
	}
	// Oldest active RQ is snaps[10]; truncating must preserve what that
	// snapshot reads.
	want, _, _ := o.ReadAt(src, snaps[10])
	o.Truncate(snaps[10], VCAS)
	after := o.Len()
	if after >= before {
		t.Fatalf("truncate did not shrink chain: %d -> %d", before, after)
	}
	got, ok, _ := o.ReadAt(src, snaps[10])
	if !ok || got != want {
		t.Fatalf("truncate broke snapshot: got (%d,%v), want %d", got, ok, want)
	}
	// Newer snapshots unaffected.
	if v, _, _ := o.ReadAt(src, snaps[19]); v != 19 {
		t.Fatalf("newest snapshot reads %d, want 19", v)
	}
}

// Property: a randomly generated write history replayed sequentially is
// fully recoverable via snapshots taken between writes.
func TestHistoryRecoverableProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 50 {
			vals = vals[:50]
		}
		src := core.New(core.Logical)
		o := chainOf(uint64(0))
		var snaps []core.TS
		for _, v := range vals {
			o.Write(src, v)
			snaps = append(snaps, src.Snapshot())
		}
		for i, s := range snaps {
			got, ok, _ := o.ReadAt(src, s)
			if !ok || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCASLogical(b *testing.B) {
	src := core.New(core.Logical)
	o := chainOf(uint64(0))
	for i := 0; i < b.N; i++ {
		o.CompareAndSwap(src, uint64(i), uint64(i+1))
	}
}

func BenchmarkCASTSC(b *testing.B) {
	src := core.New(core.TSC)
	o := chainOf(uint64(0))
	for i := 0; i < b.N; i++ {
		o.CompareAndSwap(src, uint64(i), uint64(i+1))
	}
}

func TestNoOpWritesCreateNoVersions(t *testing.T) {
	src := core.New(core.Logical)
	o := chainOf(uint64(5))
	before := o.Len()
	o.Write(src, 5)                   // same value: no new version
	if !o.CompareAndSwap(src, 5, 5) { // CAS to same value succeeds
		t.Fatal("CAS(5,5) failed")
	}
	if o.Len() != before {
		t.Fatalf("no-op writes grew the chain: %d -> %d", before, o.Len())
	}
}

func TestReadAtBeforeChainExists(t *testing.T) {
	src := core.New(core.Logical)
	// A chain whose initial version is labeled with a real timestamp
	// (not 0) reports no value for older snapshots.
	o := new(Chain[uint64])
	v := &Entry[uint64]{val: 7}
	v.ts.Store(src.Advance())
	o.head.Store(v)
	if _, ok, _ := o.ReadAt(src, 0); ok {
		t.Fatal("snapshot before creation found a version")
	}
	if got, ok, _ := o.ReadAt(src, core.MaxTS); !ok || got != 7 {
		t.Fatalf("current snapshot = (%d,%v)", got, ok)
	}
}

func TestVersionAccessors(t *testing.T) {
	o := chainOf(uint64(3))
	h := o.Head()
	if h.Value() != 3 || h.TS() != 0 {
		t.Fatalf("head accessors: val=%d ts=%d", h.Value(), h.TS())
	}
}

// cell is a value carrying the version that records it, the shape lfbst
// nodes have.
type cell struct {
	id  int
	ver Entry[*cell]
}

// A caller-owned version seeds a chain and is installed by
// CompareAndSwapVersion exactly like an allocated one: labeled on install,
// chained behind its predecessor, readable at every bound.
func TestCallerOwnedVersions(t *testing.T) {
	src := core.New(core.Logical)
	a, b := &cell{id: 1}, &cell{id: 2}
	var o Chain[*cell]
	o.InitWith(&a.ver, a)
	if o.Head() != &a.ver || a.ver.TS() != 0 || o.Read(src) != a {
		t.Fatal("InitWith did not seed the chain with the embedded version at label 0")
	}
	s0 := src.Snapshot()
	b.ver.Arm(b)
	if o.CompareAndSwapVersion(src, b, &b.ver) {
		t.Fatal("CompareAndSwapVersion succeeded against the wrong expected value")
	}
	if !o.CompareAndSwapVersion(src, a, &b.ver) {
		t.Fatal("CompareAndSwapVersion(a -> b) failed")
	}
	if o.Head() != &b.ver || b.ver.TS() == core.Pending || b.ver.next.Load() != &a.ver {
		t.Fatal("installed version is not the labeled head chained behind its predecessor")
	}
	if v, ok, _ := o.ReadAt(src, s0); !ok || v != a {
		t.Fatalf("ReadAt at the old bound = (%v,%v), want a", v, ok)
	}
	if v, ok, _ := o.ReadAt(src, src.Snapshot()); !ok || v != b {
		t.Fatalf("ReadAt at a new bound = (%v,%v), want b", v, ok)
	}
}

// A helper replaying CompareAndSwapVersion after the operation finished
// fails and leaves the installed version alone: not re-armed, and not
// re-linked to the tail Truncate cut since (a detached version's link is
// claimed, nil).
func TestCompareAndSwapVersionReplay(t *testing.T) {
	src := core.New(core.Logical)
	a, b, c := &cell{id: 1}, &cell{id: 2}, &cell{id: 3}
	var o Chain[*cell]
	o.InitWith(&a.ver, a)
	b.ver.Arm(b)
	c.ver.Arm(c)
	o.CompareAndSwapVersion(src, a, &b.ver)
	o.CompareAndSwapVersion(src, b, &c.ver)
	if n := o.Truncate(src.Snapshot(), VCAS); n != 2 {
		t.Fatalf("Truncate dropped %d versions, want 2", n)
	}
	ts := b.ver.TS()
	if o.CompareAndSwapVersion(src, a, &b.ver) {
		t.Fatal("a replayed CompareAndSwapVersion succeeded")
	}
	if b.ver.TS() != ts || b.ver.next.Load() != nil || o.Head() != &c.ver || o.Len() != 1 {
		t.Fatal("a replayed CompareAndSwapVersion changed the chain")
	}
}

// Concurrent helpers installing the same armed version: exactly one call
// reports the install, the version appears once, and every caller returns
// with the head labeled.
func TestCompareAndSwapVersionHelpers(t *testing.T) {
	src := core.New(core.TSC)
	for round := 0; round < 200; round++ {
		a, b := &cell{id: 1}, &cell{id: 2}
		var o Chain[*cell]
		o.InitWith(&a.ver, a)
		b.ver.Arm(b)
		var wg sync.WaitGroup
		var wins [4]bool
		for g := range wins {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wins[g] = o.CompareAndSwapVersion(src, a, &b.ver)
				if o.Head().TS() == core.Pending {
					t.Error("a helper returned with the head unlabeled")
				}
			}()
		}
		wg.Wait()
		n := 0
		for _, w := range wins {
			if w {
				n++
			}
		}
		if n != 1 || o.Len() != 2 || o.Read(src) != b {
			t.Fatalf("round %d: %d installs, chain %d", round, n, o.Len())
		}
	}
}
