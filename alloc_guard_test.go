package tscds_test

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"tscds"
	"tscds/internal/bench"
	"tscds/internal/wal/faultfs"
)

// TestPooledUpdatePathAllocFree pins the pool's core claim: with
// Config.Alloc = AllocPool, a steady-state insert+delete churn on the EBR
// skip list performs ZERO heap allocations per operation — nodes come from
// the epoch-fed free lists (the registry counts the hits and the recycled
// nodes), limbo shells from the thread's spare list of recycled ones, and
// the label machinery is allocation-free. The durable rows hold the WAL to the same
// claim on 4 shards at both acknowledgment modes: the commit closure stays
// on the stack and each record is encoded into the stream's reused buffer.
// Any new allocation on the update path (a closure, a boxed value, a
// forgotten pooled constructor) fails this test.
func TestPooledUpdatePathAllocFree(t *testing.T) {
	for _, c := range []struct {
		name      string
		shards    int
		syncEvery int // 0: no durability
	}{
		{"flat", 1, 0},
		{"wal-sync1-4shards", 4, 1},
		{"wal-sync64-4shards", 4, 64},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := tscds.NewMetrics()
			cfg := tscds.Config{
				Source:     tscds.Logical,
				MaxThreads: 4,
				Alloc:      tscds.AllocPool,
				Metrics:    reg,
			}
			var m tscds.Map
			var err error
			if c.syncEvery == 0 {
				m, err = tscds.New(tscds.SkipList, tscds.EBRRQ, cfg)
			} else {
				cfg.Durability = &tscds.Durability{Dir: "wal", SyncEvery: c.syncEvery, FS: faultfs.New(faultfs.Fault{})}
				m, err = tscds.NewSharded(tscds.SkipList, tscds.EBRRQ, c.shards, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer m.(tscds.DurableMap).Close()
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()

			// GC off for the measurement: a collection mid-run would not
			// change the alloc count but could steal the node pool's
			// shared sync.Pool contents and force refill misses.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))

			// Warm up: churn enough keys that the free lists are primed
			// and the prune cadence (retire -> limbo -> recycle) reaches
			// steady state.
			for i := uint64(1); i <= 2000; i++ {
				m.Insert(th, i, i)
			}
			for i := uint64(1); i <= 2000; i++ {
				m.Delete(th, i)
			}
			m.Drain()

			key := uint64(5000) // 5000..7000 spans blocks of every shard
			n := testing.AllocsPerRun(2000, func() {
				m.Insert(th, key, 1)
				m.Delete(th, key)
				key++
			})
			if n != 0 {
				t.Fatalf("pooled insert+delete pair allocates %.2f objects, want 0", n)
			}
			snap := reg.Snapshot()
			if ps := snap.Pool; ps == nil || ps.Hits == 0 || ps.Recycled == 0 {
				t.Fatalf("pool counters %+v, want hits and recycled nodes", ps)
			}
			if w := snap.WAL; c.syncEvery != 0 && (w == nil || w.Appends < 4000) {
				t.Fatalf("WAL counters %+v, want every update logged", w)
			}
		})
	}
}

// TestPoolIdleOnHistoryTechniques: vCAS and Bundle keep what they detach
// reachable to snapshot readers, so no pool runs on them. AllocPool is
// still accepted — one Config may serve maps of every technique — and a
// snapshot carries a pool block only where a pool is running.
func TestPoolIdleOnHistoryTechniques(t *testing.T) {
	for _, c := range []struct {
		s    tscds.Structure
		t    tscds.Technique
		pool bool
	}{
		{tscds.BST, tscds.VCAS, false}, {tscds.Citrus, tscds.Bundle, false},
		{tscds.SkipList, tscds.Bundle, false}, {tscds.LazyList, tscds.VCAS, false},
		{tscds.BST, tscds.EBRRQ, true},
	} {
		for _, shards := range []int{0, 2} {
			reg := tscds.NewMetrics()
			cfg := tscds.Config{Source: tscds.Logical, MaxThreads: 2, Alloc: tscds.AllocPool, Metrics: reg}
			var m tscds.Map
			var err error
			if shards == 0 {
				m, err = tscds.New(c.s, c.t, cfg)
			} else {
				m, err = tscds.NewSharded(c.s, c.t, shards, cfg)
			}
			if err != nil {
				t.Fatalf("%v/%v shards=%d with AllocPool: %v", c.s, c.t, shards, err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 64; i++ {
				m.Insert(th, i, i)
				m.Delete(th, i/2)
			}
			th.Release()
			if got := reg.Snapshot().Pool != nil; got != c.pool {
				t.Errorf("%v/%v shards=%d: snapshot has a pool block %v, want %v", c.s, c.t, shards, got, c.pool)
			}
		}
	}
}

// TestPoolUntouchedByConstruction: building a pooled EBR-RQ map moves no
// pool counter. Its structures build their node pool when they are built,
// and their sentinels — the EFRB tree's three nodes, the Citrus root, the
// skip list's head — come from the GC, so a new map of each family, flat or
// sharded, shows a pool block with no traffic before its first operation.
func TestPoolUntouchedByConstruction(t *testing.T) {
	for _, s := range []tscds.Structure{tscds.BST, tscds.Citrus, tscds.SkipList} {
		for _, shards := range []int{0, 4} {
			reg := tscds.NewMetrics()
			cfg := tscds.Config{Source: tscds.Logical, MaxThreads: 2, Alloc: tscds.AllocPool, Metrics: reg}
			var err error
			if shards == 0 {
				_, err = tscds.New(s, tscds.EBRRQ, cfg)
			} else {
				_, err = tscds.NewSharded(s, tscds.EBRRQ, shards, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if p := reg.Snapshot().Pool; p == nil || p.Hits != 0 || p.Misses != 0 || p.Recycled != 0 {
				t.Errorf("%v/ebrrq shards=%d: pool block %+v before any operation, want present and zero", s, shards, p)
			}
		}
	}
}

// TestRangeQueryAllocFree: a range query collects straight into the
// caller's buffer. With capacity for the result it allocates nothing — no
// per-query slice of parts or escaping closure in the snapshot-read
// protocol, no accumulator map, closure on the limbo walk or sort scratch
// in the EBR-RQ collection — on every arm, flat and across 4 shards, live
// and as of a past timestamp, with deleted keys behind (in limbo, or as
// version history) to be walked.
func TestRangeQueryAllocFree(t *testing.T) {
	for _, spec := range bench.Arms() {
		s, tech, err := bench.ParseArm(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{0, 4} {
			cfg := tscds.Config{Source: tscds.Logical, MaxThreads: 4}
			var m tscds.Map
			if shards == 0 {
				m, err = tscds.New(s, tech, cfg)
			} else {
				m, err = tscds.NewSharded(s, tech, shards, cfg)
			}
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
				m.Delete(th, i)
			}
			name := fmt.Sprintf("%s shards=%d", spec, shards)
			buf := make([]tscds.KV, 0, 1024)
			var got int
			n := testing.AllocsPerRun(200, func() {
				got = len(m.RangeQuery(th, 1000, 1999, buf))
			})
			if got < 600 {
				t.Fatalf("%s: range query returned %d pairs, want about 666", name, got)
			}
			if n != 0 {
				t.Errorf("%s: RangeQuery into a caller buffer allocates %.1f objects, want 0", name, n)
			}
			ts := m.Now()
			ebr := tech == tscds.EBRRQ || tech == tscds.EBRRQLockFree
			var gotAt int
			n = testing.AllocsPerRun(200, func() {
				kvs, err := m.RangeQueryAt(th, 1000, 1999, ts, buf)
				if ebr && errors.Is(err, tscds.ErrHistoryUnsupported) {
					gotAt = got // refused, as it must be; the refusal is free too
				} else if err == nil {
					gotAt = len(kvs)
				}
			})
			if gotAt != got {
				t.Fatalf("%s: RangeQueryAt(Now()) returned %d pairs, RangeQuery %d", name, gotAt, got)
			}
			if n != 0 {
				t.Errorf("%s: RangeQueryAt into a caller buffer allocates %.1f objects, want 0", name, n)
			}
			th.Release()
		}
	}
}

// TestBSTVcasUpdateAllocCeiling holds the GC-allocated update path of the
// EFRB tree to its nodes. Under vCAS and EBR-RQ, a successful insert
// allocates three objects: the new leaf, the copy of the displaced leaf and
// the internal node over them (under vCAS each carrying its own version). A
// successful delete allocates one: a leaf sibling's copy or, under vCAS, an
// internal sibling's standalone version; under EBR-RQ the limbo entry of
// the leaf it retires costs a 64th of one, its share of the thread's shell
// slab (TestEBRRQDeleteAllocCeiling). The keys ascend, so a deleted leaf's
// sibling is mostly internal. An insert of a present key allocates nothing: the leaf
// is allocated once the key is known absent. No update allocates a
// descriptor or a clean record: each thread slot reuses one descriptor, and
// a node's update field is one word. A per-attempt descriptor, a per-edge
// seed version or an eager leaf coming back fails this test.
func TestBSTVcasUpdateAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		s tscds.Structure
		t tscds.Technique
	}{
		{tscds.BST, tscds.VCAS}, {tscds.BST, tscds.EBRRQ},
	} {
		m, err := tscds.New(c.s, c.t, tscds.Config{Source: tscds.Logical, MaxThreads: 4})
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.RegisterThread()
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 2000; i++ {
			m.Insert(th, i*7919%4000, i)
		}
		key := uint64(10_000)
		ins := testing.AllocsPerRun(1000, func() {
			if !m.Insert(th, key, 1) {
				t.Fatal("insert of a fresh key failed")
			}
			key++
		})
		key = 10_000
		dup := testing.AllocsPerRun(1000, func() {
			if m.Insert(th, key, 2) {
				t.Fatal("insert of a present key succeeded")
			}
			key++
		})
		key = 10_000
		del := testing.AllocsPerRun(1000, func() {
			if !m.Delete(th, key) {
				t.Fatal("delete of a present key failed")
			}
			key++
		})
		if ins > 3 || dup != 0 || del > 1 {
			t.Errorf("%v/%v allocates %.2f objects per insert, %.2f per insert of a present key and %.2f per delete, want at most 3, 0 and 1",
				c.s, c.t, ins, dup, del)
		}
		th.Release()
	}
}

// TestBundleSkipListUpdateAllocCeiling holds the GC-allocated update path
// of the bundled lists to what they record: an insert allocates the node —
// tower, both bundle entries and labels inside it — plus the overflow
// array of a tower taller than the node holds, and a delete its one
// standalone entry. An unlock closure, a lock array moved to the heap, a
// separate tower or a per-insert entry coming back fails this test; the
// one-level (lazy) list, whose towers never overflow, allocates exactly one
// object per update.
func TestBundleSkipListUpdateAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		s      tscds.Structure
		insMax float64 // mean objects per insert
	}{
		// Two objects only as often as towers outgrow the node (one in 32;
		// the ceiling leaves room for one in 8).
		{tscds.SkipList, 1.25},
		{tscds.LazyList, 1},
	} {
		m, err := tscds.New(c.s, tscds.Bundle, tscds.Config{Source: tscds.Logical, MaxThreads: 4})
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.RegisterThread()
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 2000; i++ {
			m.Insert(th, i*7919%4000, i)
		}
		// AllocsPerRun reports a truncated mean, so inserts are measured one
		// at a time: each at most two objects.
		const runs = 1000
		key := uint64(10_000)
		var ins float64
		for i := 0; i < runs; i++ {
			n := testing.AllocsPerRun(1, func() {
				if !m.Insert(th, key, 1) {
					t.Fatal("insert of a fresh key failed")
				}
				key++
			})
			if n > 2 {
				t.Fatalf("%v: an insert allocated %.0f objects, want the node and at most its overflow array; "+
					"AllocsPerRun counts the whole process, and %s", c.s, n, goroutines())
			}
			ins += n
		}
		key = 10_000
		del := testing.AllocsPerRun(runs, func() {
			if !m.Delete(th, key) {
				t.Fatal("delete of a present key failed")
			}
			key++
		})
		if ins > c.insMax*runs || del > 1 {
			t.Fatalf("%v/Bundle allocates %.2f objects per insert and %.2f per delete, want at most %.2f and 1; %s",
				c.s, ins/runs, del, c.insMax, goroutines())
		}
		th.Release()
	}
}

// goroutines names what else was running, for a failure of an allocation
// count that may be some other goroutine's: the count and every stack.
func goroutines() string {
	buf := make([]byte, 1<<20)
	return fmt.Sprintf("%d goroutines were running:\n%s", runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestEBRRQDeleteAllocCeiling holds a GC-mode EBR-RQ delete that copies no
// node to its limbo entry's share of a shell slab: the manager hands out
// limbo entries from per-thread slabs of 64, so a mean over many deletes
// stays at or under 1/32 allocations, where a per-retire entry reads 1.
// testing.AllocsPerRun truncates its mean to an integer and cannot see a
// 1/64, so the test counts every allocation with runtime.MemStats. The
// keys are deleted so that no delete copies a node: in the EFRB tree keys
// inserted ascending hang as leaves off a right spine, so a leaf deleted
// from the low end has an internal sibling, which is spliced in as itself;
// in the Citrus tree the largest key has no right child, so deleting from
// the high end never relocates a successor.
func TestEBRRQDeleteAllocCeiling(t *testing.T) {
	const n = 1500
	for _, c := range []struct {
		s    tscds.Structure
		keys func(i uint64) uint64 // the i-th key deleted, of 1..n+2
	}{
		{tscds.BST, func(i uint64) uint64 { return 1 + i }},
		{tscds.Citrus, func(i uint64) uint64 { return n + 2 - i }},
		{tscds.SkipList, func(i uint64) uint64 { return 1 + i*7919%n }},
	} {
		t.Run(c.s.String(), func(t *testing.T) {
			m, err := tscds.New(c.s, tscds.EBRRQ, tscds.Config{Source: tscds.Logical, MaxThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			for k := uint64(1); k <= n+2; k++ {
				m.Insert(th, k, k)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := uint64(0); i < n; i++ {
				if !m.Delete(th, c.keys(i)) {
					t.Fatalf("delete of present key %d failed", c.keys(i))
				}
			}
			runtime.ReadMemStats(&after)
			if per := float64(after.Mallocs-before.Mallocs) / n; per > 1.0/32 {
				t.Errorf("%v/EBR-RQ allocates %.4f objects per delete, want at most 1/32", c.s, per)
			}
		})
	}
}
