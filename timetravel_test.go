package tscds

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// histCombos returns the (structure, technique) pairs whose technique
// retains per-key version history — the cells where time travel works.
func histCombos() []struct {
	S Structure
	T Technique
} {
	var out []struct {
		S Structure
		T Technique
	}
	for _, c := range allCombos() {
		if c.T == VCAS || c.T == Bundle {
			out = append(out, c)
		}
	}
	return out
}

// retainAll is a retention window wider than any payload the sources
// can produce: the watermark never rises and every stamp must resolve.
const retainAll = ^uint64(0)

// TestTimeTravelExactBoundary pins the snapshot tie rule end to end for
// every history-retaining cell: a version whose label equals the
// requested timestamp IS in the snapshot, and a delete whose label
// equals the requested timestamp has already REMOVED the key. The
// update's label is located by probing GetAt over the (pre, post)
// stamp interval bracketing the update — the first timestamp at which
// the new state is visible is the label itself, so the assertions at
// label and label-1 exercise exactly the inclusive/exclusive boundary.
func TestTimeTravelExactBoundary(t *testing.T) {
	for _, c := range histCombos() {
		c := c
		name := strings.ReplaceAll(fmt.Sprintf("%v-%v", c.S, c.T), " ", "_")
		t.Run(name, func(t *testing.T) {
			m, err := New(c.S, c.T, Config{Source: Logical, MaxThreads: 2, Retention: retainAll})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()

			const key, val = 7, 111
			// Neighbors on both sides so the historical walk has
			// structure to traverse around the probed key.
			m.Insert(th, key-2, 1)
			m.Insert(th, key+2, 2)

			present := func(ts uint64) bool {
				t.Helper()
				v, ok, err := m.GetAt(th, key, ts)
				if err != nil {
					t.Fatalf("GetAt(%d, ts=%d): %v", key, ts, err)
				}
				if ok && v != val {
					t.Fatalf("GetAt(%d, ts=%d) = %d, want %d", key, ts, v, val)
				}
				return ok
			}
			// label locates the first timestamp in (pre, post] at which
			// the state flips to want.
			label := func(pre, post uint64, want bool) uint64 {
				t.Helper()
				for ts := pre + 1; ts <= post; ts++ {
					if present(ts) == want {
						return ts
					}
				}
				t.Fatalf("no timestamp in (%d,%d] observes present=%v", pre, post, want)
				return 0
			}

			pre := m.Now()
			if !m.Insert(th, key, val) {
				t.Fatal("insert failed")
			}
			post := m.Now()
			ins := label(pre, post, true)
			if present(ins - 1) {
				t.Fatalf("key visible at %d, one below the insert label %d", ins-1, ins)
			}
			if !present(ins) {
				t.Fatalf("insert labeled %d not in the snapshot at its own label", ins)
			}

			pre = m.Now()
			if !m.Delete(th, key) {
				t.Fatal("delete failed")
			}
			post = m.Now()
			del := label(pre, post, false)
			if !present(del - 1) {
				t.Fatalf("key absent at %d, one below the delete label %d", del-1, del)
			}
			if present(del) {
				t.Fatalf("delete labeled %d did not remove the key from the snapshot at its own label", del)
			}

			// The range walk must agree with the point walk at both ties.
			for _, tc := range []struct {
				ts   uint64
				want int
			}{{ins, 1}, {ins - 1, 0}, {del, 0}, {del - 1, 1}} {
				kvs, err := m.RangeQueryAt(th, key, key, tc.ts, nil)
				if err != nil {
					t.Fatalf("RangeQueryAt@%d: %v", tc.ts, err)
				}
				if len(kvs) != tc.want {
					t.Fatalf("RangeQueryAt[%d,%d]@%d = %d pairs, want %d", key, key, tc.ts, len(kvs), tc.want)
				}
			}
		})
	}
}

// TestTimeTravelUnsupported: EBR-RQ cells retain no per-key version
// history, so every time-travel entry point refuses with
// ErrHistoryUnsupported — even when a retention window is configured
// (it has no effect on them; see TestRetentionIgnoredOnEBRRQ).
func TestTimeTravelUnsupported(t *testing.T) {
	for _, c := range allCombos() {
		if c.T == VCAS || c.T == Bundle {
			continue
		}
		c := c
		name := strings.ReplaceAll(fmt.Sprintf("%v-%v", c.S, c.T), " ", "_")
		t.Run(name, func(t *testing.T) {
			m, err := New(c.S, c.T, Config{Source: Logical, MaxThreads: 2, Retention: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			m.Insert(th, 1, 10)
			ts := m.Now()
			if _, _, err := m.GetAt(th, 1, ts); !errors.Is(err, ErrHistoryUnsupported) {
				t.Fatalf("GetAt: err=%v, want ErrHistoryUnsupported", err)
			}
			if _, err := m.RangeQueryAt(th, 0, 10, ts, nil); !errors.Is(err, ErrHistoryUnsupported) {
				t.Fatalf("RangeQueryAt: err=%v, want ErrHistoryUnsupported", err)
			}
			if err := m.ScanAt(th, 0, 10, ts, func(KV) bool { return true }); !errors.Is(err, ErrHistoryUnsupported) {
				t.Fatalf("ScanAt: err=%v, want ErrHistoryUnsupported", err)
			}
			// Live reads are untouched by the refusal.
			if v, ok := m.Get(th, 1); !ok || v != 10 {
				t.Fatalf("Get after refusal = (%d,%v), want (10,true)", v, ok)
			}
		})
	}
}

// TestRetentionIgnoredOnEBRRQ: Config.Retention is accepted on EBR-RQ
// maps and changes nothing — in particular it does not hold retired
// nodes in limbo, which every range query and every prune would then
// have to walk for a history the technique refuses to serve. A map with
// a retain-everything window drains to the same limbo population as one
// without.
func TestRetentionIgnoredOnEBRRQ(t *testing.T) {
	for _, s := range []Structure{BST, Citrus, SkipList} {
		limbo := func(retention uint64) (mid, drained int64) {
			reg := NewMetrics()
			m, err := NewSharded(s, EBRRQ, 2, Config{Source: Logical, MaxThreads: 2, Metrics: reg, Retention: retention})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			for i := uint64(0); i < 3000; i++ {
				m.Insert(th, i%500, i)
				m.Delete(th, i%500)
				if i%100 == 0 {
					m.RangeQuery(th, 0, 10, nil) // moves the logical clock
				}
			}
			mid = reg.Snapshot().GC.LimboLen
			m.Drain()
			return mid, reg.Snapshot().GC.LimboLen
		}
		plainMid, plain := limbo(0)
		keptMid, kept := limbo(retainAll)
		if kept != plain || keptMid != plainMid {
			t.Errorf("%v: limbo with Retention = %d (%d after Drain), without = %d (%d after Drain); the window must not matter",
				s, keptMid, kept, plainMid, plain)
		}
		if plain != 0 {
			t.Errorf("%v: %d nodes left in limbo after Drain", s, plain)
		}
	}
}

// TestTimeTravelOutOfDomain: keys above MaxKey and empty intervals are
// misses/empty without validating the timestamp, matching the live
// read surface.
func TestTimeTravelOutOfDomain(t *testing.T) {
	m, err := New(BST, VCAS, Config{Source: Logical, MaxThreads: 2, Retention: retainAll})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Release()
	m.Insert(th, 1, 10)
	future := m.Now() + 1<<20
	if v, ok, err := m.GetAt(th, MaxKey+1, future); v != 0 || ok || err != nil {
		t.Fatalf("GetAt above MaxKey = (%d,%v,%v), want (0,false,nil)", v, ok, err)
	}
	if kvs, err := m.RangeQueryAt(th, 10, 5, future, nil); len(kvs) != 0 || err != nil {
		t.Fatalf("RangeQueryAt on empty interval = (%v,%v), want (empty,nil)", kvs, err)
	}
	if _, _, err := m.GetAt(th, 1, future); !errors.Is(err, ErrFutureTimestamp) {
		t.Fatalf("GetAt at future ts: err=%v, want ErrFutureTimestamp", err)
	}
}

// TestTimeTravelTruncationAndMetrics drives a no-retention map until
// pruning publishes a watermark, then asserts the stale stamp refuses
// with ErrTruncatedHistory and that the metrics registry counted both
// the successful historical reads and the refusals. The same churn on a
// retain-all map must keep serving the stale stamp and count no refusal.
func TestTimeTravelTruncationAndMetrics(t *testing.T) {
	for _, retention := range []uint64{0, retainAll} {
		reg := NewMetrics()
		m, err := New(BST, VCAS, Config{Source: Logical, MaxThreads: 2, Retention: retention, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.RegisterThread()
		if err != nil {
			t.Fatal(err)
		}
		defer th.Release()

		stale := m.Now()
		m.Insert(th, 1, 10)
		if _, _, err := m.GetAt(th, 1, m.Now()); err != nil {
			t.Fatalf("fresh historical read: %v", err)
		}
		// More than a prune-bound refresh interval of updates, so a write
		// publishes the watermark past the stale stamp.
		for k := uint64(0); k < 256; k++ {
			m.Insert(th, k, k)
			m.Delete(th, k)
		}
		_, _, err = m.GetAt(th, 1, stale)
		s := reg.Snapshot()
		if s.History == nil {
			t.Fatal("metrics snapshot has no history block after historical reads")
		}
		if retention == retainAll {
			if err != nil || s.History.Reads < 2 || s.History.Truncations != 0 {
				t.Fatalf("stale read under retain-all: err=%v, counters %+v; want it served and no truncation", err, *s.History)
			}
			continue
		}
		if !errors.Is(err, ErrTruncatedHistory) {
			t.Fatalf("stale read under zero retention: err=%v, want ErrTruncatedHistory", err)
		}
		if s.History.Reads == 0 || s.History.Truncations == 0 {
			t.Fatalf("history counters = %+v, want both nonzero", *s.History)
		}
		var prom strings.Builder
		reg.WriteProm(&prom)
		for _, fam := range []string{"tscds_history_reads_total", "tscds_history_truncations_total"} {
			if !strings.Contains(prom.String(), fam) {
				t.Fatalf("Prometheus exposition missing %s:\n%s", fam, prom.String())
			}
		}
	}
}

// TestGetAtCountsAsContains: the sinks count a historical point read as a
// point read. N GetAt calls move the registry's and the recorder's contains
// counts by N and leave range-query alone; RangeQueryAt and ScanAt stay
// range queries. Flat and across 4 shards.
func TestGetAtCountsAsContains(t *testing.T) {
	for _, shards := range []int{0, 4} {
		reg := NewMetrics()
		m := newMap(t, BST, VCAS, shards, Config{Source: Logical, MaxThreads: 2, Metrics: reg, Trace: &TraceConfig{}})
		th, err := m.RegisterThread()
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 10; k++ {
			m.Insert(th, k, k)
		}
		ts := m.Now()
		// counts returns the contains and range-query counts, registry first.
		counts := func() [4]uint64 {
			s := reg.Snapshot()
			c := [4]uint64{s.Ops["contains"].Count, s.Ops["range-query"].Count}
			for _, o := range m.TraceSnapshot(false).Ops {
				switch o.Op {
				case "contains":
					c[2] = o.Count
				case "range-query":
					c[3] = o.Count
				}
			}
			return c
		}
		const n = 25
		before := counts()
		for i := uint64(0); i < n; i++ {
			if v, ok, err := m.GetAt(th, i%10, ts); err != nil || !ok || v != i%10 {
				t.Fatalf("shards=%d: GetAt(%d) = %d, %v, %v", shards, i%10, v, ok, err)
			}
		}
		after := counts()
		if want := [4]uint64{before[0] + n, before[1], before[2] + n, before[3]}; after != want {
			t.Fatalf("shards=%d: after %d GetAt, contains/range-query counts (registry, recorder) = %v, want %v", shards, n, after, want)
		}
		if _, err := m.RangeQueryAt(th, 0, 9, ts, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.ScanAt(th, 0, 9, ts, func(KV) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if got, want := counts(), [4]uint64{after[0], after[1] + 2, after[2], after[3] + 2}; got != want {
			t.Fatalf("shards=%d: after RangeQueryAt and ScanAt, counts = %v, want %v", shards, got, want)
		}
		th.Release()
	}
}

// TestCheckpointAt covers the durable point-in-time export: a snapshot
// collected through retained history at a past timestamp is a valid
// recovery base (recovery still converges to the PRESENT state, because
// only WAL segments the past bound covers are pruned), and the error
// surface matches the read path — ErrHistoryUnsupported without a
// history-retaining technique, ErrFutureTimestamp ahead of the source,
// ErrTruncatedHistory below the watermark, and a configuration error
// without durability at all.
func TestCheckpointAt(t *testing.T) {
	dir := t.TempDir()
	m, err := New(BST, VCAS, Config{
		Source: Logical, MaxThreads: 2, Retention: retainAll,
		Durability: &Durability{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	dm := m.(DurableMap)
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 5; k++ {
		m.Insert(th, k, k*100)
	}
	past := m.Now()
	m.Delete(th, 2)
	m.Insert(th, 6, 600)

	if err := dm.CheckpointAt(m.Now() + 1000); !errors.Is(err, ErrFutureTimestamp) {
		t.Fatalf("CheckpointAt at future ts: err=%v, want ErrFutureTimestamp", err)
	}
	if err := dm.CheckpointAt(past); err != nil {
		t.Fatalf("CheckpointAt(%d): %v", past, err)
	}
	th.Release()
	if err := dm.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the past-timestamp snapshot plus the retained WAL
	// tail must land on the present state, not the snapshot's.
	m2, err := New(BST, VCAS, Config{
		Source: Logical, MaxThreads: 2,
		Durability: &Durability{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	th2, err := m2.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th2.Release()
	want := map[uint64]uint64{1: 100, 3: 300, 4: 400, 5: 500, 6: 600}
	kvs := m2.RangeQuery(th2, 0, MaxKey, nil)
	if len(kvs) != len(want) {
		t.Fatalf("recovered %d pairs %v, want %d", len(kvs), kvs, len(want))
	}
	for _, kv := range kvs {
		if want[kv.Key] != kv.Val {
			t.Fatalf("recovered (%d,%d), want val %d", kv.Key, kv.Val, want[kv.Key])
		}
	}
	if err := m2.(DurableMap).Close(); err != nil {
		t.Fatal(err)
	}

	// Error surface on the remaining configurations.
	eb, err := New(BST, EBRRQ, Config{
		Source: Logical, MaxThreads: 2,
		Durability: &Durability{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eb.(DurableMap).CheckpointAt(1); !errors.Is(err, ErrHistoryUnsupported) {
		t.Fatalf("CheckpointAt on EBR-RQ: err=%v, want ErrHistoryUnsupported", err)
	}
	_ = eb.(DurableMap).Close()

	plain, err := New(BST, VCAS, Config{Source: Logical, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.(DurableMap).CheckpointAt(1); err == nil {
		t.Fatal("CheckpointAt without durability: want an error")
	}
}

// TestCheckpointAtTruncated: under a zero retention window the
// watermark chases the source, so a checkpoint at a stale stamp must
// refuse exactly like a read there.
func TestCheckpointAtTruncated(t *testing.T) {
	m, err := New(BST, VCAS, Config{
		Source: Logical, MaxThreads: 2,
		Durability: &Durability{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	dm := m.(DurableMap)
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Release()
	stale := m.Now()
	for k := uint64(0); k < 256; k++ {
		m.Insert(th, k, k)
		m.Delete(th, k)
	}
	if err := dm.CheckpointAt(stale); !errors.Is(err, ErrTruncatedHistory) {
		t.Fatalf("CheckpointAt at stale ts under zero retention: err=%v, want ErrTruncatedHistory", err)
	}
	_ = dm.Close()
}

// TestTimeTravelRetentionEdgeRace is the retention-boundary soak, meant
// for -race: writers churn versions and drive pruning (including
// explicit Drain calls, and recycling allocators in the pooled
// variants) while readers repeatedly re-read at fixed past timestamps
// as those timestamps age across the retention edge. The MVCC
// contract under test: a read at a fixed timestamp returns THE SAME
// answer every time until the watermark passes it, after which it
// refuses forever — it never returns a younger value, a recycled
// node's garbage, or flips back from refusal to success.
func TestTimeTravelRetentionEdgeRace(t *testing.T) {
	cells := []struct {
		S     Structure
		T     Technique
		Alloc AllocMode
	}{
		{BST, VCAS, 0},
		{BST, VCAS, AllocPool},
		{Citrus, Bundle, 0},
		{SkipList, VCAS, AllocPool},
		{LazyList, Bundle, AllocPool},
	}
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	for _, c := range cells {
		c := c
		name := strings.ReplaceAll(fmt.Sprintf("%v-%v-a%d", c.S, c.T, c.Alloc), " ", "_")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const writers, readers, keys = 2, 2, 16
			m, err := New(c.S, c.T, Config{
				Source:     Logical,
				MaxThreads: writers + readers,
				Retention:  2048, // ticks: stamps age out mid-run
				Alloc:      c.Alloc,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Both sides are bounded: on a single-CPU box an open-ended
			// writer loop starves -race scheduling. Once the writers
			// finish, the remaining reader iterations re-validate their
			// pinned stamps against a quiescing map.
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				th, err := m.RegisterThread()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(w int, th *Thread) {
					defer wg.Done()
					defer th.Release()
					for i := 0; i < iters; i++ {
						key := uint64(i % keys)
						m.Insert(th, key, uint64(w+1)<<32|uint64(i))
						m.Delete(th, key)
						if i%64 == 0 {
							m.Drain() // recycle everything retired so far
						}
					}
				}(w, th)
			}

			type obsAt struct {
				ts    uint64
				key   uint64
				val   uint64
				ok    bool
				trunc bool
			}
			var rg sync.WaitGroup
			for r := 0; r < readers; r++ {
				th, err := m.RegisterThread()
				if err != nil {
					t.Fatal(err)
				}
				rg.Add(1)
				go func(r int, th *Thread) {
					defer rg.Done()
					defer th.Release()
					var pinned []obsAt
					for i := 0; i < iters; i++ {
						key := uint64(i % keys)
						if i%8 == 0 { // pin a fresh stamp with its answer
							ts := m.Now()
							v, ok, err := m.GetAt(th, key, ts)
							if err == nil {
								pinned = append(pinned, obsAt{ts: ts, key: key, val: v, ok: ok})
								if len(pinned) > 32 {
									pinned = pinned[1:]
								}
							} else if !errors.Is(err, ErrTruncatedHistory) {
								t.Errorf("reader %d: GetAt at fresh ts %d: %v", r, ts, err)
								return
							}
						}
						if len(pinned) == 0 {
							continue
						}
						p := &pinned[i%len(pinned)]
						v, ok, err := m.GetAt(th, p.key, p.ts)
						switch {
						case err == nil:
							if p.trunc {
								t.Errorf("reader %d: ts %d resolved again after a refusal", r, p.ts)
								return
							}
							if v != p.val || ok != p.ok {
								t.Errorf("reader %d: GetAt(%d, ts=%d) = (%#x,%v), first read saw (%#x,%v)",
									r, p.key, p.ts, v, ok, p.val, p.ok)
								return
							}
							if ok && (v>>32 == 0 || v>>32 > writers) {
								t.Errorf("reader %d: GetAt(%d, ts=%d) = %#x: not a value any writer wrote",
									r, p.key, p.ts, v)
								return
							}
						case errors.Is(err, ErrTruncatedHistory):
							p.trunc = true // monotone: must refuse from now on
						default:
							t.Errorf("reader %d: GetAt(%d, ts=%d): %v", r, p.key, p.ts, err)
							return
						}
						if i%256 == 0 {
							runtime.Gosched()
						}
					}
				}(r, th)
			}
			rg.Wait()
			wg.Wait()
		})
	}
}
