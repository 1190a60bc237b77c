package tscds

import (
	"fmt"
	"testing"
)

// shardCounts is the shard sweep the acceptance criteria pin.
var shardCounts = []int{1, 2, 4, 8}

// TestShardedCrossProduct model-checks every valid (structure,
// technique) pair through the sharded front end at each shard count:
// point operations against a reference map, then full- and partial-range
// queries compared key-for-key in ascending order. The 64 keys, 64 apart,
// fill 16 key blocks: two of every shard at 8 shards.
func TestShardedCrossProduct(t *testing.T) {
	for _, c := range allCombos() {
		for _, n := range shardCounts {
			t.Run(fmt.Sprintf("%v/%v/shards=%d", c.S, c.T, n), func(t *testing.T) {
				m, err := NewSharded(c.S, c.T, n, Config{Source: Logical, MaxThreads: 4})
				if err != nil {
					t.Fatal(err)
				}
				if m.Shards() != n {
					t.Fatalf("Shards() = %d, want %d", m.Shards(), n)
				}
				th, err := m.RegisterThread()
				if err != nil {
					t.Fatal(err)
				}
				defer th.Release()
				const gap = 64
				model := map[uint64]uint64{}
				for k := uint64(0); k < 64*gap; k += gap {
					if m.Insert(th, k, k*10) != true {
						t.Fatalf("Insert(%d) = false", k)
					}
					model[k] = k * 10
				}
				for k := uint64(0); k < 64*gap; k += 3 * gap {
					if !m.Delete(th, k) {
						t.Fatalf("Delete(%d) = false", k)
					}
					delete(model, k)
				}
				for k := uint64(0); k < 64*gap; k += gap {
					_, want := model[k]
					if got := m.Contains(th, k); got != want {
						t.Fatalf("Contains(%d) = %v, want %v", k, got, want)
					}
					v, ok := m.Get(th, k)
					if ok != want || (ok && v != model[k]) {
						t.Fatalf("Get(%d) = %d,%v want %d,%v", k, v, ok, model[k], want)
					}
				}
				checkRange := func(lo, hi uint64) {
					t.Helper()
					got := m.RangeQuery(th, lo, hi, nil)
					var want []KV
					for k := lo; k <= hi; k++ {
						if v, ok := model[k]; ok {
							want = append(want, KV{Key: k, Val: v})
						}
					}
					if len(got) != len(want) {
						t.Fatalf("RangeQuery(%d,%d): %d pairs, want %d", lo, hi, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("RangeQuery(%d,%d)[%d] = %v, want %v", lo, hi, i, got[i], want[i])
						}
					}
				}
				checkRange(0, 64*gap)         // every shard overlaps
				checkRange(5*gap, 5*gap)      // exactly one shard overlaps
				checkRange(10*gap, 12*gap)    // two shards when n > 1
				checkRange(3*gap+1, 60*gap-1) // more blocks than shards
				if got, want := m.Len(), len(model); got != want {
					t.Fatalf("Len = %d, want %d", got, want)
				}
			})
		}
	}
}

// TestShardedLockFreeEBRLogicalOnly checks the combination rules carry
// through sharding: lock-free EBR-RQ composes with a Logical source and
// is rejected with TSC, shard by shard.
func TestShardedLockFreeEBRLogicalOnly(t *testing.T) {
	if _, err := NewSharded(BST, EBRRQLockFree, 4, Config{Source: Logical}); err != nil {
		t.Fatalf("logical lock-free EBR-RQ rejected: %v", err)
	}
	if _, err := NewSharded(BST, EBRRQLockFree, 4, Config{Source: TSC}); err == nil {
		t.Fatal("TSC lock-free EBR-RQ accepted")
	}
	if _, err := NewSharded(LazyList, EBRRQ, 4, Config{}); err == nil {
		t.Fatal("lazy list EBR-RQ accepted")
	}
}

// TestShardedOneSlotHoldsEveryShard: a sharded map's shards share one
// registry, so a handle's one reservation holds back history truncation
// in every shard, not just one, and withdrawing it releases all of them.
func TestShardedOneSlotHoldsEveryShard(t *testing.T) {
	for _, c := range []struct {
		s      Structure
		t      Technique
		pruned func(MetricsSnapshot) uint64
	}{
		{SkipList, Bundle, func(s MetricsSnapshot) uint64 { return s.GC.BundleEntriesPruned }},
		{BST, VCAS, func(s MetricsSnapshot) uint64 { return s.GC.VcasVersionsPruned }},
	} {
		t.Run(c.s.String()+"/"+c.t.String(), func(t *testing.T) {
			met := NewMetrics()
			m, err := NewSharded(c.s, c.t, 4, Config{Source: Logical, MaxThreads: 2, Metrics: met})
			if err != nil {
				t.Fatal(err)
			}
			reader, writer := mustRegister(t, m), mustRegister(t, m)
			churn := func() {
				for round := 0; round < 4; round++ {
					for k := uint64(0); k < 64; k++ {
						m.Insert(writer, k, k)
						m.Delete(writer, k)
					}
				}
			}
			reader.BeginRQ()
			churn()
			if got := c.pruned(met.Snapshot()); got != 0 {
				t.Fatalf("%d history entries pruned across the shards while one handle held a reservation", got)
			}
			reader.DoneRQ()
			churn()
			if c.pruned(met.Snapshot()) == 0 {
				t.Fatal("nothing pruned after the reservation was withdrawn")
			}
		})
	}
}

func mustRegister(t *testing.T, m Map) *Thread {
	t.Helper()
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// TestShardedLenDrainAggregation pins the quiescent aggregation paths:
// Len sums live keys across shards, and the Len-triggered Drain empties
// every shard's limbo list (visible through the shared GC gauge).
func TestShardedLenDrainAggregation(t *testing.T) {
	met := NewMetrics()
	m, err := NewSharded(Citrus, EBRRQ, 4, Config{Source: Logical, MaxThreads: 2, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Release()
	for k := uint64(0); k < 100; k++ {
		m.Insert(th, k, k)
	}
	for k := uint64(0); k < 100; k += 2 {
		m.Delete(th, k)
	}
	snap := met.Snapshot()
	if snap.GC.LimboRetired == 0 {
		t.Fatal("no limbo retirements recorded across shards")
	}
	if got := m.Len(); got != 50 {
		t.Fatalf("Len = %d, want 50", got)
	}
	if live := met.Snapshot().GC.LimboLen; live != 0 {
		t.Fatalf("limbo population after Len-drain = %d, want 0", live)
	}
}

// TestShardedMetricsShardSums pins the per-shard routing counts: the
// Ops sum equals the point operations issued, each op landed on the shard
// that owns the key's block, and a narrow range query touches exactly the
// shard holding its keys while a wide one touches all of them.
func TestShardedMetricsShardSums(t *testing.T) {
	const shards = 4
	met := NewMetrics()
	m, err := NewSharded(BST, VCAS, shards, Config{Source: Logical, MaxThreads: 2, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Release()
	// Five keys in each of the blocks 0-7, two blocks per shard: 10 point
	// ops per shard. BST applies no key shift, so user keys are internal
	// keys here.
	const keys, block = 40, 256
	for k := uint64(0); k < keys; k++ {
		m.Insert(th, k%8*block+k/8, k)
	}
	snap := met.Snapshot()
	if len(snap.Shards) != shards {
		t.Fatalf("snapshot has %d shard entries, want %d", len(snap.Shards), shards)
	}
	var ops uint64
	for i, sh := range snap.Shards {
		ops += sh.Ops
		if sh.Ops != keys/shards {
			t.Fatalf("shard %d ops = %d, want %d", i, sh.Ops, keys/shards)
		}
	}
	if ops != keys {
		t.Fatalf("shard ops sum = %d, want %d", ops, keys)
	}

	// Block 6 belongs to shard 2; blocks 0-7 to all of them.
	m.RangeQuery(th, 6*block+1, 6*block+3, nil)
	m.RangeQuery(th, 0, 8*block-1, nil)
	snap = met.Snapshot()
	var rqs uint64
	for i, sh := range snap.Shards {
		rqs += sh.RQs
		want := uint64(1)
		if i == 2 {
			want = 2
		}
		if sh.RQs != want {
			t.Fatalf("shard %d rqs = %d, want %d", i, sh.RQs, want)
		}
	}
	if rqs != shards+1 {
		t.Fatalf("shard rqs sum = %d, want %d", rqs, shards+1)
	}
}

// TestShardedTraceFanoutPhase checks a sharded range query records the
// shard-fanout coordination span.
func TestShardedTraceFanoutPhase(t *testing.T) {
	m, err := NewSharded(SkipList, Bundle, 4, Config{Source: Logical, MaxThreads: 2, Trace: &TraceConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Release()
	for k := uint64(0); k < 32; k++ {
		m.Insert(th, k, k)
	}
	m.RangeQuery(th, 0, 31, nil)
	var found bool
	for _, p := range m.TraceSnapshot(false).Phases {
		if p.Phase == "shard-fanout" {
			found = true
			if p.Count == 0 {
				t.Fatal("shard-fanout recorded with zero count")
			}
			if p.Unit != "ns" {
				t.Fatalf("shard-fanout unit = %q, want ns", p.Unit)
			}
		}
	}
	if !found {
		t.Fatal("no shard-fanout phase in trace snapshot")
	}
}

// TestShardedRegisterExhaustion checks the facade surfaces the map's
// MaxThreads capacity, which every shard shares, and that a failed
// registration does not leak a slot.
func TestShardedRegisterExhaustion(t *testing.T) {
	m, err := NewSharded(LazyList, VCAS, 2, Config{Source: Logical, MaxThreads: 3})
	if err != nil {
		t.Fatal(err)
	}
	ths := make([]*Thread, 3)
	for i := range ths {
		th, err := m.RegisterThread()
		if err != nil {
			t.Fatal(err)
		}
		ths[i] = th
	}
	if _, err := m.RegisterThread(); err == nil {
		t.Fatal("registration past MaxThreads succeeded")
	}
	ths[1].Release()
	if _, err := m.RegisterThread(); err != nil {
		t.Fatalf("slot not reusable after release: %v", err)
	}
}
