package jiffy

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"tscds/internal/core"
)

func newMap(kind core.Kind, threads int) (*Map, *core.Registry) {
	reg := core.NewRegistry(threads)
	return New(core.New(kind), reg), reg
}

func TestBasicPutGetRemove(t *testing.T) {
	m, reg := newMap(core.TSC, 1)
	th := reg.MustRegister()
	if _, ok := m.Get(th, 5); ok {
		t.Fatal("empty map returned a value")
	}
	m.Put(th, 5, 50)
	if v, ok := m.Get(th, 5); !ok || v != 50 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	m.Put(th, 5, 51) // overwrite appends a revision
	if v, _ := m.Get(th, 5); v != 51 {
		t.Fatalf("overwrite: Get = %d", v)
	}
	m.Remove(th, 5)
	if m.Contains(th, 5) {
		t.Fatal("removed key still present")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	// Key 0 and oversized keys are ignored, not stored.
	m.Put(th, 0, 1)
	m.Put(th, MaxKey+1, 1)
	if m.Len() != 0 {
		t.Fatal("invalid keys stored")
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	m, reg := newMap(core.TSC, 4)
	writer := reg.MustRegister()
	reader := reg.MustRegister()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// The batch invariant: keys 10,20,30 always carry the same i.
			m.Apply(writer, []Op{{Key: 10, Val: i}, {Key: 20, Val: i}, {Key: 30, Val: i}})
		}
	}()
	for round := 0; round < 3000; round++ {
		sn := m.Snapshot(reader)
		a, okA := sn.Get(10)
		b, okB := sn.Get(20)
		c, okC := sn.Get(30)
		sn.Close()
		if okA != okB || okB != okC {
			t.Fatalf("torn batch: presence %v %v %v", okA, okB, okC)
		}
		if okA && (a != b || b != c) {
			t.Fatalf("torn batch: values %d %d %d", a, b, c)
		}
	}
	close(stop)
	wg.Wait()
}

func TestBatchLastWriteWinsWithinBatch(t *testing.T) {
	m, reg := newMap(core.Logical, 1)
	th := reg.MustRegister()
	m.Apply(th, []Op{{Key: 7, Val: 1}, {Key: 7, Val: 2}})
	if v, _ := m.Get(th, 7); v != 2 {
		t.Fatalf("last-write-wins violated: %d", v)
	}
	m.Apply(th, []Op{{Key: 7, Val: 3}, {Key: 7, Remove: true}})
	if m.Contains(th, 7) {
		t.Fatal("remove-after-put in one batch did not win")
	}
}

// The Jiffy requirement the paper discusses: revision timestamps are
// unique and strictly increasing, even under concurrency and even when
// the clock is coarse enough to tie constantly.
func TestStrictUniqueTimestamps(t *testing.T) {
	for _, kind := range []core.Kind{core.TSC, core.Monotonic, core.Logical} {
		t.Run(kind.String(), func(t *testing.T) {
			m, _ := newMap(kind, 8)
			const gs = 4
			const per = 2000
			tss := make([][]core.TS, gs)
			var wg sync.WaitGroup
			for g := 0; g < gs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					out := make([]core.TS, per)
					for i := range out {
						out[i] = m.strictTS()
					}
					tss[g] = out
				}(g)
			}
			wg.Wait()
			seen := make(map[core.TS]bool, gs*per)
			for g, out := range tss {
				prev := core.TS(0)
				for i, ts := range out {
					if ts <= prev {
						t.Fatalf("goroutine %d: non-increasing ts at %d: %d then %d", g, i, prev, ts)
					}
					prev = ts
					if seen[ts] {
						t.Fatalf("duplicate revision timestamp %d", ts)
					}
					seen[ts] = true
				}
			}
			t.Logf("%v: %d timestamps, %d tie retries", kind, gs*per, m.TieRetries())
		})
	}
}

// frozenSource is a counter that never moves: the shape of a stalled TSC.
type frozenSource struct{}

func (frozenSource) Advance() core.TS  { return 41 }
func (frozenSource) Peek() core.TS     { return 41 }
func (frozenSource) Snapshot() core.TS { return 41 }
func (frozenSource) Kind() core.Kind   { return core.TSC }

// A batch over a frozen counter used to spin forever waiting for the
// reading to pass the last revision. Each batch must finish, and the
// revisions must still strictly increase.
func TestStrictTSBoundedOnFrozenSource(t *testing.T) {
	reg := core.NewRegistry(1)
	m := New(frozenSource{}, reg)
	th := reg.MustRegister()
	done := make(chan []core.TS, 1)
	go func() {
		var revs []core.TS
		for i := uint64(1); i <= 3; i++ {
			m.Put(th, i, i)
			revs = append(revs, m.last.Load())
		}
		done <- revs
	}()
	select {
	case revs := <-done:
		for i := 1; i < len(revs); i++ {
			if revs[i] <= revs[i-1] {
				t.Fatalf("revisions %v do not strictly increase", revs)
			}
		}
		sn := m.Snapshot(th)
		defer sn.Close()
		if got := sn.Range(1, 3, nil); len(got) != 1 {
			t.Fatalf("snapshot at the frozen reading sees %v, want only the first batch", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a batch over a frozen source did not return within 10 s")
	}
}

// Snapshots are repeatable: the same handle rereads identical state no
// matter how much writers churn after it opened.
func TestSnapshotRepeatableUnderChurn(t *testing.T) {
	m, reg := newMap(core.TSC, 4)
	w := reg.MustRegister()
	for k := uint64(1); k <= 200; k++ {
		m.Put(w, k, k)
	}
	reader := reg.MustRegister()
	sn := m.Snapshot(reader)
	before := sn.Range(1, 200, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(200) + 1)
			if rng.Intn(2) == 0 {
				m.Put(w, k, k*1000)
			} else {
				m.Remove(w, k)
			}
		}
	}()
	for round := 0; round < 300; round++ {
		again := sn.Range(1, 200, nil)
		if len(again) != len(before) {
			t.Fatalf("snapshot drifted: %d then %d entries", len(before), len(again))
		}
		for i := range again {
			if again[i] != before[i] {
				t.Fatalf("snapshot drifted at %d: %v then %v", i, before[i], again[i])
			}
		}
		if v, ok := sn.Get(before[0].Key); !ok || v != before[0].Val {
			t.Fatalf("snapshot Get drifted: (%d,%v)", v, ok)
		}
	}
	close(stop)
	wg.Wait()
	sn.Close()
}

// A snapshot taken before a key existed must not see it; one taken after
// a remove must not either.
func TestSnapshotBoundaries(t *testing.T) {
	m, reg := newMap(core.Logical, 2)
	th := reg.MustRegister()
	reader := reg.MustRegister()

	snEmpty := m.Snapshot(reader)
	m.Put(th, 42, 1)
	if _, ok := snEmpty.Get(42); ok {
		t.Fatal("pre-insert snapshot sees the key")
	}
	snEmpty.Close()

	snLive := m.Snapshot(reader)
	m.Remove(th, 42)
	if v, ok := snLive.Get(42); !ok || v != 1 {
		t.Fatalf("live snapshot lost the key: (%d,%v)", v, ok)
	}
	snLive.Close()

	snGone := m.Snapshot(reader)
	if _, ok := snGone.Get(42); ok {
		t.Fatal("post-remove snapshot sees the key")
	}
	snGone.Close()
}

func TestRangeSortedAndBounded(t *testing.T) {
	m, reg := newMap(core.TSC, 1)
	th := reg.MustRegister()
	for _, k := range []uint64{50, 10, 30, 20, 40} {
		m.Put(th, k, k)
	}
	m.Remove(th, 30)
	sn := m.Snapshot(th)
	defer sn.Close()
	got := sn.Range(15, 45, nil)
	want := []uint64{20, 40}
	if len(got) != len(want) {
		t.Fatalf("range = %v", got)
	}
	for i := range want {
		if got[i].Key != want[i] {
			t.Fatalf("range = %v, want keys %v", got, want)
		}
	}
}

func TestRevisionChainsBounded(t *testing.T) {
	m, reg := newMap(core.Logical, 2)
	th := reg.MustRegister()
	// Key 32 hits the %32 truncation trigger.
	for i := uint64(0); i < 20000; i++ {
		m.Put(th, 32, i)
	}
	if n := m.RevisionLen(32); n > 1000 {
		t.Fatalf("revision chain unbounded: %d", n)
	}
	// An open snapshot pins history.
	sn := m.Snapshot(th)
	base := sn.TS()
	for i := uint64(0); i < 1000; i++ {
		m.Put(th, 32, i)
	}
	if v, ok := sn.Get(32); !ok || v != 19999 {
		t.Fatalf("pinned snapshot lost its revision: (%d,%v) at bound %d", v, ok, base)
	}
	sn.Close()
}

func TestConcurrentMixedWorkload(t *testing.T) {
	m, reg := newMap(core.TSC, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := reg.MustRegister()
			defer th.Release()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 1500; i++ {
				switch rng.Intn(4) {
				case 0:
					m.Put(th, uint64(rng.Intn(100)+1), uint64(i))
				case 1:
					m.Remove(th, uint64(rng.Intn(100)+1))
				case 2:
					batch := []Op{
						{Key: uint64(rng.Intn(100) + 1), Val: uint64(i)},
						{Key: uint64(rng.Intn(100) + 1), Val: uint64(i)},
					}
					m.Apply(th, batch)
				default:
					sn := m.Snapshot(th)
					kvs := sn.Range(1, 100, nil)
					for j := 1; j < len(kvs); j++ {
						if kvs[j].Key <= kvs[j-1].Key {
							t.Errorf("unsorted/duplicate snapshot range at %d", j)
							sn.Close()
							return
						}
					}
					sn.Close()
				}
			}
		}(g)
	}
	wg.Wait()
}
