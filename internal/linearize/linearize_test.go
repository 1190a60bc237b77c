package linearize

import (
	"errors"
	"strings"
	"testing"

	"tscds"
	"tscds/internal/core"
	"tscds/internal/lfbst"
)

func uev(op OpKind, key, val uint64, inv, ret int64, ok bool) Event {
	return Event{Op: op, Key: key, Val: val, Inv: inv, Ret: ret, OK: ok}
}

func rqev(lo, hi uint64, inv, ret int64, kvs ...tscds.KV) Event {
	return Event{Op: OpRange, Lo: lo, Hi: hi, Inv: inv, Ret: ret, KVs: kvs}
}

func hist(events ...Event) *History {
	return &History{Cfg: Config{Seed: 1}.withDefaults(), Threads: [][]Event{events}}
}

func TestCheckAcceptsSequentialHistory(t *testing.T) {
	h := hist(
		uev(OpInsert, 1, 100, 0, 1, true),
		rqev(0, 10, 2, 3, tscds.KV{Key: 1, Val: 100}),
		uev(OpContains, 1, 0, 4, 5, true),
		uev(OpDelete, 1, 0, 6, 7, true),
		rqev(0, 10, 8, 9),
		uev(OpContains, 1, 0, 10, 11, false),
	)
	if err := Check(h); err != nil {
		t.Fatalf("legal history rejected: %v", err)
	}
}

func TestCheckAcceptsConcurrentAmbiguity(t *testing.T) {
	// An insert overlapping a range query may or may not be observed;
	// both outcomes must pass.
	for _, observed := range []bool{false, true} {
		kvs := []tscds.KV{}
		if observed {
			kvs = append(kvs, tscds.KV{Key: 1, Val: 100})
		}
		h := hist(
			uev(OpInsert, 1, 100, 0, 10, true),
			rqev(0, 10, 4, 6, kvs...),
		)
		if err := Check(h); err != nil {
			t.Fatalf("observed=%v: concurrent overlap rejected: %v", observed, err)
		}
	}
}

func TestCheckRejectsStaleSnapshot(t *testing.T) {
	// The pair was deleted strictly before the query began.
	h := hist(
		uev(OpInsert, 1, 100, 0, 1, true),
		uev(OpDelete, 1, 0, 2, 3, true),
		rqev(0, 10, 4, 5, tscds.KV{Key: 1, Val: 100}),
	)
	err := Check(h)
	if !errors.Is(err, ErrNotLinearizable) {
		t.Fatalf("stale snapshot accepted: %v", err)
	}
}

func TestCheckRejectsMissingKey(t *testing.T) {
	// The key is certainly present throughout the query, yet missing.
	h := hist(
		uev(OpInsert, 1, 100, 0, 1, true),
		rqev(0, 10, 2, 3),
	)
	if err := Check(h); !errors.Is(err, ErrNotLinearizable) {
		t.Fatalf("dropped key accepted: %v", err)
	}
}

func TestCheckRejectsNonAtomicSnapshot(t *testing.T) {
	// v1's lifetime certainly ends (by 11) before v2's can begin (20),
	// yet one "snapshot" observed both.
	h := hist(
		uev(OpInsert, 1, 100, 0, 1, true),
		uev(OpDelete, 1, 0, 10, 11, true),
		uev(OpInsert, 2, 200, 20, 21, true),
		rqev(0, 10, 0, 30, tscds.KV{Key: 1, Val: 100}, tscds.KV{Key: 2, Val: 200}),
	)
	err := Check(h)
	if !errors.Is(err, ErrNotLinearizable) {
		t.Fatalf("non-atomic snapshot accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "no common snapshot instant") {
		t.Fatalf("unexpected violation detail: %v", err)
	}
}

func TestCheckRejectsPhantomValue(t *testing.T) {
	h := hist(
		uev(OpInsert, 1, 100, 0, 1, true),
		rqev(0, 10, 2, 3, tscds.KV{Key: 1, Val: 999}),
	)
	if err := Check(h); !errors.Is(err, ErrNotLinearizable) {
		t.Fatalf("phantom value accepted: %v", err)
	}
}

func TestCheckRejectsImpossibleReads(t *testing.T) {
	cases := []struct {
		name string
		h    *History
	}{
		{"contains-false-on-present", hist(
			uev(OpInsert, 1, 100, 0, 1, true),
			uev(OpContains, 1, 0, 2, 3, false),
		)},
		{"contains-true-on-absent", hist(
			uev(OpContains, 1, 0, 0, 1, true),
		)},
		{"failed-insert-on-absent", hist(
			uev(OpInsert, 1, 100, 0, 1, false),
		)},
		{"failed-delete-on-present", hist(
			uev(OpInsert, 1, 100, 0, 1, true),
			uev(OpDelete, 1, 0, 2, 3, false),
		)},
		{"get-wrong-value", hist(
			uev(OpInsert, 1, 100, 0, 1, true),
			uev(OpGet, 1, 101, 2, 3, true),
		)},
	}
	for _, c := range cases {
		if err := Check(c.h); !errors.Is(err, ErrNotLinearizable) {
			t.Errorf("%s: accepted: %v", c.name, err)
		}
	}
}

func TestCheckRejectsUnorderableUpdates(t *testing.T) {
	// Two successful inserts of one key with no delete between them can
	// belong to no sequential execution.
	h := hist(
		uev(OpInsert, 1, 100, 0, 1, true),
		uev(OpInsert, 1, 101, 2, 3, true),
	)
	err := Check(h)
	if !errors.Is(err, ErrNotLinearizable) {
		t.Fatalf("double insert accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "alternation") {
		t.Fatalf("unexpected violation detail: %v", err)
	}
}

func TestOrderUpdatesRespectsRealTime(t *testing.T) {
	// I_a [0,10], D [5,6], I_b [7,20]: D finishes before I_b begins, so
	// the only witness is I_a, D, I_b.
	ia := uev(OpInsert, 1, 100, 0, 10, true)
	d := uev(OpDelete, 1, 0, 5, 6, true)
	ib := uev(OpInsert, 1, 101, 7, 20, true)
	var order []upd
	orders := 0
	eachOrder([]upd{
		{e: &ib, insert: true}, {e: &d, insert: false}, {e: &ia, insert: true},
	}, func(o []upd) bool {
		order = append([]upd(nil), o...)
		orders++
		return false
	})
	if orders != 1 {
		t.Fatalf("%d witness orders found, want exactly one", orders)
	}
	got := []uint64{order[0].e.Val, order[2].e.Val}
	if got[0] != 100 || order[1].e.Op != OpDelete || got[1] != 101 {
		t.Fatalf("witness order wrong: %v", got)
	}
}

// TestCheckTriesEveryAdmissibleOrder: two successful inserts of one key
// that overlap each other and a delete admit two orders with different
// surviving values (a 1 ms stall inside an update makes such a knot). The
// key's reads decide between them; committing to invocation order used to
// reject whichever history the scheduler happened to produce.
func TestCheckTriesEveryAdmissibleOrder(t *testing.T) {
	const k, a, b = 7, 0xa, 0xb
	knot := []Event{
		uev(OpInsert, k, a, 10, 100, true),
		uev(OpInsert, k, b, 20, 90, true),
		uev(OpDelete, k, 0, 85, 95, true),
	}
	get := func(val uint64, inv int64) Event { return uev(OpGet, k, val, inv, inv+1, true) }
	with := func(reads ...Event) *History { return hist(append(append([]Event(nil), knot...), reads...)...) }

	for name, h := range map[string]*History{
		"a survives (b, delete, a)": with(get(a, 200)),
		"b survives (a, delete, b)": with(get(b, 200)),
		"a survives, seen by a range query": with(
			rqev(0, 10, 200, 201, tscds.KV{Key: k, Val: a}), uev(OpContains, k, 0, 300, 301, true)),
		"b survives, a seen inside the knot": with(get(a, 50), get(b, 200)),
	} {
		if err := Check(h); err != nil {
			t.Errorf("%s: linearizable history rejected: %v", name, err)
		}
	}
	for name, h := range map[string]*History{
		"both survive":               with(get(a, 200), get(b, 300)),
		"both survive, one by range": with(get(b, 200), rqev(0, 10, 300, 301, tscds.KV{Key: k, Val: a})),
		"neither survives":           with(uev(OpContains, k, 0, 200, 201, false)),
		"range misses the survivor":  with(get(a, 200), rqev(0, 10, 300, 301)),
	} {
		if err := Check(h); !errors.Is(err, ErrNotLinearizable) {
			t.Errorf("%s: accepted, but no order of the knot explains it (err %v)", name, err)
		}
	}
}

func TestCoversMergesSpans(t *testing.T) {
	if !covers([]span{{0, 4}, {5, 10}}, 0, 10) {
		t.Fatal("adjacent spans should cover")
	}
	if covers([]span{{0, 4}, {6, 10}}, 0, 10) {
		t.Fatal("gap at 5 should not cover")
	}
	if covers(nil, 3, 3) {
		t.Fatal("empty spans cover nothing")
	}
}

// The acceptance criterion's proof that the checker can actually fail:
// a deliberately broken snapshot (fault-injection hook) is detected on a
// real map.
func TestCheckerDetectsInjectedFault(t *testing.T) {
	m, err := tscds.New(tscds.BST, tscds.VCAS, tscds.Config{Source: tscds.Logical, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunAndCheck(m, Config{
		Workers: 4, Ops: 300, RangePct: 40, FaultRate: 1, Seed: 7,
	})
	if !errors.Is(err, ErrNotLinearizable) {
		t.Fatalf("injected faults went undetected: %v", err)
	}
}

// TestCheckRejectsTornCrossShardSnapshot builds the exact failure the
// sharded fan-out's one-shared-timestamp protocol exists to prevent:
// two per-shard structures over one source, with shard A collected at a
// bound read BEFORE two inserts (one per shard) and shard B at a bound
// read AFTER them. The stitched result misses shard A's key yet contains
// shard B's later one — a state no single instant exhibits — and the
// checker must say so.
func TestCheckRejectsTornCrossShardSnapshot(t *testing.T) {
	src := core.New(core.Logical)
	regA, regB := core.NewRegistry(2), core.NewRegistry(2)
	shardA, shardB := lfbst.New(src, regA), lfbst.New(src, regB)
	rqA, rqB := regA.MustRegister(), regB.MustRegister()
	wA, wB := regA.MustRegister(), regB.MustRegister()

	// Torn protocol: shard A's bound first, shard B's only after the
	// inserts land. (The real fan-out reserves both shards and reads the
	// shared source exactly once between the reservations.)
	rqA.BeginRQ()
	sA := src.Snapshot()

	vEven, vOdd := value(1, 1), value(1, 2)
	evEven := Event{Op: OpInsert, Thread: 1, Key: 2, Val: vEven, Inv: 1, Ret: 2, OK: shardA.Insert(wA, 2, vEven)}
	evOdd := Event{Op: OpInsert, Thread: 1, Key: 3, Val: vOdd, Inv: 3, Ret: 4, OK: shardB.Insert(wB, 3, vOdd)}
	if !evEven.OK || !evOdd.OK {
		t.Fatal("setup inserts failed")
	}

	rqB.BeginRQ()
	sB := src.Snapshot()
	kvs := shardA.RangeQueryAt(rqA, 0, 10, sA, nil)
	kvs = shardB.RangeQueryAt(rqB, 0, 10, sB, kvs)
	if len(kvs) != 1 || kvs[0].Key != 3 {
		t.Fatalf("torn schedule did not tear: collected %v", kvs)
	}

	h := &History{Cfg: Config{Seed: 1}.withDefaults(), Threads: [][]Event{
		{Event{Op: OpRange, Thread: 0, Lo: 0, Hi: 10, Inv: 0, Ret: 5, KVs: kvs}},
		{evEven, evOdd},
	}}
	err := Check(h)
	if !errors.Is(err, ErrNotLinearizable) {
		t.Fatalf("torn cross-shard snapshot accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "no snapshot instant") {
		t.Fatalf("unexpected violation detail: %v", err)
	}
}

// TestCheckRejectsTornSwitchSnapshot pins the failure the adaptive
// source's generation validation (core.SnapshotValid + retry) exists to
// prevent. When hardware timestamps backstep, a range query's bound can
// end up numerically AHEAD of labels assigned to operations that
// linearize after the query — so without revalidation, a collection
// overlapping the fault window can stitch pre-switch absence together
// with post-switch presence. The distilled history: k1's insert
// completes (by 10) strictly before the query begins (20), and k2's
// insert begins (40) strictly after the query returns (30) — yet the
// "snapshot" misses k1 and contains k2. No single instant exhibits that
// state, and the checker must reject it. This is the history shape a
// range query that kept a stale pre-switch bound would record.
func TestCheckRejectsTornSwitchSnapshot(t *testing.T) {
	h := hist(
		uev(OpInsert, 1, 100, 0, 10, true),
		rqev(0, 10, 20, 30, tscds.KV{Key: 2, Val: 200}),
		uev(OpInsert, 2, 200, 40, 50, true),
	)
	err := Check(h)
	if !errors.Is(err, ErrNotLinearizable) {
		t.Fatalf("torn pre/post-switch snapshot accepted: %v", err)
	}
}

// The same torn shape must be rejected even when only ONE half of the
// tear is present: observing the future insert alone, or missing the
// certainly-present key alone.
func TestCheckRejectsHalfTornSwitchSnapshot(t *testing.T) {
	cases := []struct {
		name string
		h    *History
	}{
		{"future-insert-observed", hist(
			rqev(0, 10, 20, 30, tscds.KV{Key: 2, Val: 200}),
			uev(OpInsert, 2, 200, 40, 50, true),
		)},
		{"settled-insert-missed", hist(
			uev(OpInsert, 1, 100, 0, 10, true),
			rqev(0, 10, 20, 30),
		)},
	}
	for _, c := range cases {
		if err := Check(c.h); !errors.Is(err, ErrNotLinearizable) {
			t.Errorf("%s: accepted: %v", c.name, err)
		}
	}
}

func TestCleanRunPasses(t *testing.T) {
	m, err := tscds.New(tscds.SkipList, tscds.Bundle, tscds.Config{Source: tscds.TSC, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	h, err := RunAndCheck(m, Config{Workers: 4, Ops: 400, Seed: 3})
	if err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	if h.Events() != 4*400+len(h.Threads[4]) {
		t.Fatalf("history incomplete: %s", h.Summary())
	}
}

// Oversubscribing the registry must surface as an error from Run, never
// a panic, and must release any handles it did obtain.
func TestRunSurfacesRegistryExhaustion(t *testing.T) {
	m, err := tscds.New(tscds.BST, tscds.VCAS, tscds.Config{Source: tscds.Logical, MaxThreads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, Config{Workers: 8, Ops: 10}); err == nil {
		t.Fatal("oversubscribed run did not error")
	}
	// The failed attempt released its handles: a right-sized run fits.
	if _, err := Run(m, Config{Workers: 2, Ops: 10}); err != nil {
		t.Fatalf("handles leaked by failed run: %v", err)
	}
}
