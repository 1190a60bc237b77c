package tscds_test

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"tscds"
	"tscds/internal/linearize"
)

// linSeed pins the harness workload so a failing run can be replayed:
//
//	go test -race -run 'TestLinearizability/<subtest>' . -linearize.seed=<seed>
var linSeed = flag.Int64("linearize.seed", 1, "workload seed for the linearizability matrix")

// linTriple is one cell of the correctness matrix.
type linTriple struct {
	S   tscds.Structure
	T   tscds.Technique
	Src tscds.SourceKind
}

// linMatrix enumerates every (structure, technique, source) combination
// tscds.New accepts, discovered by construction so the matrix can never
// silently lag the constructor.
func linMatrix() []linTriple {
	var out []linTriple
	for _, s := range []tscds.Structure{tscds.BST, tscds.Citrus, tscds.SkipList, tscds.LazyList} {
		for _, tech := range []tscds.Technique{tscds.VCAS, tscds.Bundle, tscds.EBRRQ, tscds.EBRRQLockFree} {
			for _, src := range []tscds.SourceKind{tscds.Logical, tscds.TSC, tscds.Monotonic, tscds.Adaptive} {
				if _, err := tscds.New(s, tech, tscds.Config{Source: src}); err == nil {
					out = append(out, linTriple{s, tech, src})
				}
			}
		}
	}
	return out
}

// TestLinearizability is the paper's claim under stress: for every
// supported combination, concurrent range queries, point reads and
// updates recorded by the harness admit a sequential witness. Short
// mode (wired into `make check` and CI) runs a reduced load; the full
// load runs under `make linearize`.
func TestLinearizability(t *testing.T) {
	triples := linMatrix()
	if len(triples) == 0 {
		t.Fatal("matrix is empty")
	}
	for _, tr := range triples {
		tr := tr
		name := fmt.Sprintf("%v-%v-%v", tr.S, tr.T, tr.Src)
		name = strings.ReplaceAll(name, " ", "_")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := linearize.Config{Seed: *linSeed, Workers: 4, Ops: 2500}
			if testing.Short() {
				cfg.Ops = 500
			}
			if tr.S == tscds.LazyList {
				cfg.Ops /= 2 // O(n) traversals
			}
			m, err := tscds.New(tr.S, tr.T, tscds.Config{
				Source:     tr.Src,
				MaxThreads: cfg.Workers + 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			h, err := linearize.RunAndCheck(m, cfg)
			if err != nil {
				t.Fatalf("%v\nreproduce: go test -race -run 'TestLinearizability/%s' . -linearize.seed=%d",
					err, name, cfg.Seed)
			}
			t.Logf("%s", h.Summary())
		})
	}

	// Pooled-allocation cells: each EBR-RQ structure — the maps whose
	// epoch manager feeds the pool — rechecked with nodes served from
	// recycled memory. A node recycled too early, or a constructor that
	// forgets to reset a field, shows up here as a history with no
	// sequential witness.
	pooled := []linTriple{
		{tscds.BST, tscds.EBRRQ, tscds.Logical},
		{tscds.Citrus, tscds.EBRRQ, tscds.TSC},
		{tscds.SkipList, tscds.EBRRQ, tscds.TSC},
		{tscds.SkipList, tscds.EBRRQLockFree, tscds.Logical},
	}
	for _, tr := range pooled {
		tr := tr
		name := fmt.Sprintf("%v-%v-%v-Pool", tr.S, tr.T, tr.Src)
		name = strings.ReplaceAll(name, " ", "_")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := linearize.Config{Seed: *linSeed, Workers: 4, Ops: 2500}
			if testing.Short() {
				cfg.Ops = 500
			}
			m, err := tscds.New(tr.S, tr.T, tscds.Config{
				Source:     tr.Src,
				MaxThreads: cfg.Workers + 1,
				Alloc:      tscds.AllocPool,
			})
			if err != nil {
				t.Fatal(err)
			}
			h, err := linearize.RunAndCheck(m, cfg)
			if err != nil {
				t.Fatalf("%v\nreproduce: go test -race -run 'TestLinearizability/%s' . -linearize.seed=%d",
					err, name, cfg.Seed)
			}
			t.Logf("%s", h.Summary())
		})
	}
}

// TestLinearizabilityAdaptiveSwitch is the adaptive source's correctness
// claim under stress: for every combination that accepts Adaptive, a TSC
// backstep is injected halfway through the run (while every worker keeps
// operating), forcing the source to fail over from hardware to the
// logical counter mid-history. The recorded history spans the generation
// switch — range queries before, during and after it — and must still
// admit a sequential witness. The health monitor must also record that
// the switch actually happened, so a regression that stops acting on
// tsc.Health cannot pass vacuously.
func TestLinearizabilityAdaptiveSwitch(t *testing.T) {
	var triples []linTriple
	for _, tr := range linMatrix() {
		if tr.Src == tscds.Adaptive {
			triples = append(triples, tr)
		}
	}
	if len(triples) == 0 {
		t.Fatal("no combination accepts the Adaptive source")
	}
	for _, tr := range triples {
		tr := tr
		name := fmt.Sprintf("%v-%v", tr.S, tr.T)
		name = strings.ReplaceAll(name, " ", "_")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := linearize.Config{Seed: *linSeed, Workers: 4, Ops: 2000}
			if testing.Short() {
				cfg.Ops = 500
			}
			if tr.S == tscds.LazyList {
				cfg.Ops /= 2 // O(n) traversals
			}
			health := tscds.NewTSCHealth(cfg.Workers + 1)
			cfg.Midpoint = func() {
				// A full hour of TSC ticks backwards: unambiguously a fault,
				// and large enough that the logical counter's seed dominates
				// any hardware reading taken just before the injection.
				health.InjectBackstep(uint64(time.Hour))
			}
			m, err := tscds.New(tr.S, tr.T, tscds.Config{
				Source:     tscds.Adaptive,
				Health:     health,
				MaxThreads: cfg.Workers + 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			h, err := linearize.RunAndCheck(m, cfg)
			if err != nil {
				t.Fatalf("%v\nreproduce: go test -race -run 'TestLinearizabilityAdaptiveSwitch/%s' . -linearize.seed=%d",
					err, name, cfg.Seed)
			}
			hs := health.Snapshot()
			if hs.SourceSwitches < 1 || hs.SwitchTotalNS == 0 {
				t.Fatalf("injected a backstep mid-run but the adaptive source never switched, or the switch was not timed (health: %+v)", hs)
			}
			t.Logf("%s; %d switches, %d failbacks", h.Summary(), hs.SourceSwitches, hs.SourceFailbacks)
		})
	}
}

// shardStride spreads the harness's 128 keys over 8 key blocks, two of
// every shard at 4 shards, so a sharded cell has the flat cells'
// contention and still drives every shard and the cross-shard fan-out.
const shardStride = 16

// checkFanout fails unless every shard of a sharded run served point
// operations and some range-shaped read of h hit more than one shard,
// by the per-shard counts of met.
func checkFanout(t *testing.T, met *tscds.Metrics, h *linearize.History) {
	t.Helper()
	reads := 0
	for _, log := range h.Threads {
		for i := range log {
			switch log[i].Op {
			case linearize.OpRange, linearize.OpRangeAt, linearize.OpGetAt:
				if !log[i].Trunc {
					reads++
				}
			}
		}
	}
	var hits uint64
	for i, sh := range met.Snapshot().Shards {
		if sh.Ops == 0 {
			t.Errorf("shard %d served no point operation", i)
		}
		hits += sh.RQs
	}
	if hits <= uint64(reads) {
		t.Errorf("%d range-shaped reads hit %d shards in all: none spanned two", reads, hits)
	}
}

// TestLinearizabilitySharded runs the same matrix through the sharded
// front end at shard counts 2 and 4: the cross-shard snapshot protocol
// (reserve every overlapping shard, one shared timestamp, per-shard
// collection at it) must admit a sequential witness under the same
// adversarial schedules as the single structures.
func TestLinearizabilitySharded(t *testing.T) {
	triples := linMatrix()
	if len(triples) == 0 {
		t.Fatal("matrix is empty")
	}
	for _, shards := range []int{2, 4} {
		for _, tr := range triples {
			shards, tr := shards, tr
			name := fmt.Sprintf("%v-%v-%v-s%d", tr.S, tr.T, tr.Src, shards)
			name = strings.ReplaceAll(name, " ", "_")
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := linearize.Config{Seed: *linSeed, Workers: 4, Ops: 1500, KeyStride: shardStride}
				if testing.Short() {
					cfg.Ops = 300
				}
				if tr.S == tscds.LazyList {
					cfg.Ops /= 2 // O(n) traversals
				}
				met := tscds.NewMetrics()
				m, err := tscds.NewSharded(tr.S, tr.T, shards, tscds.Config{
					Source:     tr.Src,
					MaxThreads: cfg.Workers + 1,
					Metrics:    met,
				})
				if err != nil {
					t.Fatal(err)
				}
				h, err := linearize.RunAndCheck(m, cfg)
				if err != nil {
					t.Fatalf("%v\nreproduce: go test -race -run 'TestLinearizabilitySharded/%s' . -linearize.seed=%d",
						err, name, cfg.Seed)
				}
				checkFanout(t, met, h)
				t.Logf("%s", h.Summary())
			})
		}
	}
}

// histCount tallies the recorded historical reads and how many of them
// were retention refusals, so the time-travel tests can prove they did
// not pass vacuously.
func histCount(h *linearize.History) (reads, trunc int) {
	for _, log := range h.Threads {
		for i := range log {
			if log[i].Op == linearize.OpGetAt || log[i].Op == linearize.OpRangeAt {
				reads++
				if log[i].Trunc {
					trunc++
				}
			}
		}
	}
	return reads, trunc
}

// TestLinearizabilityTimeTravel is the MVCC claim under stress: in
// every history-retaining cell of the matrix, workers capture
// timestamps mid-run and later read at them with GetAt/RangeQueryAt
// while updates, live range queries and — in the tight-retention
// subtests — version pruning keep running. Every historical
// observation must match the version whose linearization window covers
// the capture instant; a retention refusal is legal but a wrong-epoch
// value is not. Cells:
//
//   - every (structure, VCAS|Bundle, source) triple with an effectively
//     unbounded retention window, so every captured stamp must resolve;
//   - tight-retention Logical cells, where concurrent pruning races the
//     readers and ErrTruncatedHistory refusals are expected alongside
//     successful reads (the run asserts at least one read resolved);
//   - Adaptive cells with a mid-run TSC backstep: stamps captured in
//     the pre-switch generation must still resolve after the switch.
func TestLinearizabilityTimeTravel(t *testing.T) {
	var triples []linTriple
	for _, tr := range linMatrix() {
		if tr.T == tscds.VCAS || tr.T == tscds.Bundle {
			triples = append(triples, tr)
		}
	}
	if len(triples) == 0 {
		t.Fatal("no history-retaining combination in the matrix")
	}
	for _, tr := range triples {
		tr := tr
		name := fmt.Sprintf("%v-%v-%v", tr.S, tr.T, tr.Src)
		name = strings.ReplaceAll(name, " ", "_")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := linearize.Config{Seed: *linSeed, Workers: 4, Ops: 2000, HistPct: 15}
			if testing.Short() {
				cfg.Ops = 400
			}
			if tr.S == tscds.LazyList {
				cfg.Ops /= 2 // O(n) traversals
			}
			var health *tscds.TSCHealth
			if tr.Src == tscds.Adaptive {
				health = tscds.NewTSCHealth(cfg.Workers + 1)
				cfg.Midpoint = func() {
					health.InjectBackstep(uint64(time.Hour))
				}
			}
			m, err := tscds.New(tr.S, tr.T, tscds.Config{
				Source:     tr.Src,
				Health:     health,
				MaxThreads: cfg.Workers + 1,
				Retention:  ^uint64(0), // retain everything: every stamp must resolve
			})
			if err != nil {
				t.Fatal(err)
			}
			h, err := linearize.RunAndCheck(m, cfg)
			if err != nil {
				t.Fatalf("%v\nreproduce: go test -race -run 'TestLinearizabilityTimeTravel/%s' . -linearize.seed=%d",
					err, name, cfg.Seed)
			}
			reads, trunc := histCount(h)
			if reads == 0 {
				t.Fatal("no historical reads recorded: HistPct not honored")
			}
			if trunc != 0 {
				t.Fatalf("%d of %d historical reads refused under an unbounded retention window", trunc, reads)
			}
			if health != nil {
				if hs := health.Snapshot(); hs.SourceSwitches < 1 {
					t.Fatalf("injected a backstep mid-run but the adaptive source never switched (health: %+v)", hs)
				}
			}
			t.Logf("%s", h.Summary())
		})
	}

	// Tight retention: the watermark chases the source, pruning races
	// the readers, and stale stamps legally refuse. The checker skips
	// refusals; every read that resolves must still be exact.
	tight := []linTriple{
		{tscds.BST, tscds.VCAS, tscds.Logical},
		{tscds.Citrus, tscds.Bundle, tscds.Logical},
		{tscds.SkipList, tscds.VCAS, tscds.Logical},
		{tscds.LazyList, tscds.Bundle, tscds.Logical},
	}
	for _, tr := range tight {
		tr := tr
		name := fmt.Sprintf("%v-%v-tight", tr.S, tr.T)
		name = strings.ReplaceAll(name, " ", "_")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := linearize.Config{Seed: *linSeed, Workers: 4, Ops: 2000, HistPct: 20}
			if testing.Short() {
				cfg.Ops = 400
			}
			if tr.S == tscds.LazyList {
				cfg.Ops /= 2
			}
			m, err := tscds.New(tr.S, tr.T, tscds.Config{
				Source:     tr.Src,
				MaxThreads: cfg.Workers + 1,
				Retention:  512, // a few hundred logical ticks: stale stamps expire mid-run
			})
			if err != nil {
				t.Fatal(err)
			}
			h, err := linearize.RunAndCheck(m, cfg)
			if err != nil {
				t.Fatalf("%v\nreproduce: go test -race -run 'TestLinearizabilityTimeTravel/%s' . -linearize.seed=%d",
					err, name, cfg.Seed)
			}
			reads, trunc := histCount(h)
			if reads == 0 {
				t.Fatal("no historical reads recorded: HistPct not honored")
			}
			if trunc == reads {
				t.Fatalf("all %d historical reads refused: retention window never admitted a stamp", reads)
			}
			t.Logf("%s", h.Summary())
		})
	}
}

// TestLinearizabilityTimeTravelSharded pushes the historical mix
// through the sharded front end: the cross-shard fan-out validates once
// against the shared watermark, collects every overlapping shard at the
// same past timestamp, and the merged result must admit the same
// sequential witness as a single structure.
func TestLinearizabilityTimeTravelSharded(t *testing.T) {
	cells := []linTriple{
		{tscds.BST, tscds.VCAS, tscds.Logical},
		{tscds.BST, tscds.VCAS, tscds.TSC},
		{tscds.Citrus, tscds.Bundle, tscds.TSC},
		{tscds.SkipList, tscds.VCAS, tscds.Adaptive},
		{tscds.LazyList, tscds.Bundle, tscds.Logical},
	}
	for _, shards := range []int{2, 4} {
		for _, tr := range cells {
			shards, tr := shards, tr
			name := fmt.Sprintf("%v-%v-%v-s%d", tr.S, tr.T, tr.Src, shards)
			name = strings.ReplaceAll(name, " ", "_")
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := linearize.Config{Seed: *linSeed, Workers: 4, Ops: 1500, HistPct: 15, KeyStride: shardStride}
				if testing.Short() {
					cfg.Ops = 300
				}
				if tr.S == tscds.LazyList {
					cfg.Ops /= 2
				}
				met := tscds.NewMetrics()
				m, err := tscds.NewSharded(tr.S, tr.T, shards, tscds.Config{
					Source:     tr.Src,
					MaxThreads: cfg.Workers + 1,
					Retention:  ^uint64(0),
					Metrics:    met,
				})
				if err != nil {
					t.Fatal(err)
				}
				h, err := linearize.RunAndCheck(m, cfg)
				if err != nil {
					t.Fatalf("%v\nreproduce: go test -race -run 'TestLinearizabilityTimeTravelSharded/%s' . -linearize.seed=%d",
						err, name, cfg.Seed)
				}
				reads, trunc := histCount(h)
				if reads == 0 {
					t.Fatal("no historical reads recorded: HistPct not honored")
				}
				if trunc != 0 {
					t.Fatalf("%d of %d historical reads refused under an unbounded retention window", trunc, reads)
				}
				checkFanout(t, met, h)
				t.Logf("%s", h.Summary())
			})
		}
	}
}

// TestTimeTravelCheckerRejectsWrongVersion is the checker's self-test
// for historical reads: a hand-built history in which a read at a
// captured timestamp observes a version whose lifetime had already
// ended at the capture instant (and one that had not yet begun) must be
// rejected, while the read observing the version actually live at the
// capture is accepted — as is a retention refusal.
func TestTimeTravelCheckerRejectsWrongVersion(t *testing.T) {
	const key = 5
	valA := uint64(1)<<40 | 1 // thread 0, seq 1 — harness encoding
	valB := uint64(1)<<40 | 2
	base := []linearize.Event{
		{Op: linearize.OpInsert, Thread: 0, Key: key, Val: valA, OK: true, Inv: 10, Ret: 20},
		{Op: linearize.OpDelete, Thread: 0, Key: key, OK: true, Inv: 30, Ret: 40},
		{Op: linearize.OpInsert, Thread: 0, Key: key, Val: valB, OK: true, Inv: 50, Ret: 60},
	}
	mk := func(read linearize.Event) *linearize.History {
		read.Thread = 0
		return &linearize.History{
			Cfg:     linearize.Config{Seed: 1},
			Threads: [][]linearize.Event{append(append([]linearize.Event{}, base...), read)},
		}
	}
	cases := []struct {
		name   string
		read   linearize.Event
		wantOK bool
	}{
		{"range observes the live version", linearize.Event{
			Op: linearize.OpRangeAt, Lo: 0, Hi: 10, TS: 99, TSInv: 70, TSRet: 80,
			Inv: 100, Ret: 110, KVs: []tscds.KV{{Key: key, Val: valB}},
		}, true},
		{"range observes a dead version", linearize.Event{
			Op: linearize.OpRangeAt, Lo: 0, Hi: 10, TS: 99, TSInv: 70, TSRet: 80,
			Inv: 100, Ret: 110, KVs: []tscds.KV{{Key: key, Val: valA}},
		}, false},
		{"range misses a certainly-present key", linearize.Event{
			Op: linearize.OpRangeAt, Lo: 0, Hi: 10, TS: 99, TSInv: 70, TSRet: 80,
			Inv: 100, Ret: 110,
		}, false},
		{"get observes a version not yet inserted", linearize.Event{
			Op: linearize.OpGetAt, Key: key, Val: valB, OK: true, TS: 25, TSInv: 22, TSRet: 26,
			Inv: 100, Ret: 110,
		}, false},
		{"get observes the then-live version", linearize.Event{
			Op: linearize.OpGetAt, Key: key, Val: valA, OK: true, TS: 25, TSInv: 22, TSRet: 26,
			Inv: 100, Ret: 110,
		}, true},
		{"retention refusal is skipped", linearize.Event{
			Op: linearize.OpRangeAt, Lo: 0, Hi: 10, TS: 1, TSInv: 0, TSRet: 1,
			Inv: 100, Ret: 110, Trunc: true,
		}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			err := linearize.Check(mk(tc.read))
			if tc.wantOK && err != nil {
				t.Fatalf("checker rejected a justified historical read: %v", err)
			}
			if !tc.wantOK && err == nil {
				t.Fatal("checker accepted a historical read of the wrong version")
			}
		})
	}
}

// TestTimeTravelHarnessCatchesFaults proves the end-to-end path keeps
// its teeth: with fault injection corrupting recorded historical range
// results, RunAndCheck must report a violation.
func TestTimeTravelHarnessCatchesFaults(t *testing.T) {
	m, err := tscds.New(tscds.BST, tscds.VCAS, tscds.Config{
		Source: tscds.Logical, MaxThreads: 5, Retention: ^uint64(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	// RangePct at its 1% floor biases corruption overwhelmingly toward
	// historical range reads.
	cfg := linearize.Config{
		Seed: *linSeed, Workers: 4, Ops: 600,
		RangePct: 1, HistPct: 40, FaultRate: 0.3,
	}
	if _, err := linearize.RunAndCheck(m, cfg); err == nil {
		t.Fatal("checker accepted a fault-injected time-travel history")
	}
}

// TestLinearizabilityShardedCatchesFaults proves the checker retains its
// teeth through the sharded front end: with fault injection corrupting
// recorded range results, the harness must report a violation.
func TestLinearizabilityShardedCatchesFaults(t *testing.T) {
	m, err := tscds.NewSharded(tscds.BST, tscds.VCAS, 4, tscds.Config{Source: tscds.Logical, MaxThreads: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := linearize.Config{Seed: *linSeed, Workers: 4, Ops: 400, FaultRate: 0.2, KeyStride: shardStride}
	if _, err := linearize.RunAndCheck(m, cfg); err == nil {
		t.Fatal("checker accepted a fault-injected sharded history")
	}
}
