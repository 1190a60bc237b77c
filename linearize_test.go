package tscds_test

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tscds"
	"tscds/internal/bench"
	"tscds/internal/linearize"
	"tscds/internal/wal/faultfs"
)

// linSeed pins the harness workload so a failing run can be replayed:
//
//	go test -race -run 'TestLinearizability/<cell>' . -linearize.seed=<seed>
var linSeed = flag.Int64("linearize.seed", 1, "workload seed for the linearizability matrix")

// A cell is one setup of the linearizability matrix: the map it opens, the
// harness load, and the checks its levels add on the run's map m and
// history h.
type cell struct {
	name   string
	s      tscds.Structure
	t      tscds.Technique
	shards int
	cfg    tscds.Config
	run    linearize.Config
	checks []func(t *testing.T, c *cell)
	m      tscds.Map
	h      *linearize.History
}

// open builds the cell's map: flat at one shard, sharded above.
func (c *cell) open() (tscds.Map, error) {
	if c.shards == 1 {
		return tscds.New(c.s, c.t, c.cfg)
	}
	m, err := tscds.NewSharded(c.s, c.t, c.shards, c.cfg)
	if err != nil {
		return nil, err // not a nil *ShardedMap in a non-nil Map
	}
	return m, nil
}

// level is one value of an axis: its name in cell names, its edit of a
// cell and its post-run check, either of which may be nil.
type level struct {
	name  string
	edit  func(c *cell)
	check func(t *testing.T, c *cell)
}

// linAxes is the matrix's axis table, the arm first. Level 0 of every
// other axis is the plain setup, which goes with every level.
func linAxes() [][]level {
	var arms []level
	for _, spec := range bench.Arms() {
		s, tech, _ := bench.ParseArm(spec)
		arms = append(arms, level{strings.ReplaceAll(spec, "/", "_"), func(c *cell) { c.s, c.t = s, tech }, nil})
	}
	src := func(k tscds.SourceKind) level { return level{k.String(), func(c *cell) { c.cfg.Source = k }, nil} }
	retain := func(name string, w uint64, why string, bad func(reads, trunc int) bool) level {
		return level{name, func(c *cell) { c.cfg.Retention = w }, histCheck(why, bad)}
	}
	shards := func(n int) level {
		return level{fmt.Sprintf("s%d", n), func(c *cell) {
			c.shards, c.cfg.Metrics, c.run.KeyStride = n, tscds.NewMetrics(), shardStride
		}, checkFanout}
	}
	durable := func(every int) level {
		return level{fmt.Sprintf("sync%d", every), func(c *cell) {
			c.cfg.Durability = &tscds.Durability{Dir: "lin", SyncEvery: every, FS: faultfs.New(faultfs.Fault{})}
		}, checkRecovered}
	}
	return [][]level{
		arms,
		{src(tscds.Logical), src(tscds.TSC), src(tscds.Monotonic), {"Adaptive", adaptive, checkSwitch}},
		{{"GC", nil, nil}, {"Pool", func(c *cell) { c.cfg.Alloc = tscds.AllocPool }, nil}},
		{{"ret0", nil, nil},
			retain("ret512", 512, "stale stamps expire, not all", func(r, tr int) bool { return r > 0 && tr == r }),
			retain("retAll", ^uint64(0), "everything is retained", func(_, tr int) bool { return tr > 0 })},
		{{"s1", nil, nil}, shards(2), shards(4)},
		{{"volatile", nil, nil}, durable(1), durable(64)},
		{{"hist0", nil, nil}, {"hist15", func(c *cell) { c.run.HistPct = 15 },
			histCheck("15 % of operations read history", func(r, _ int) bool { return r == 0 })}},
	}
}

// build applies level setup[a] of every axis a to a fresh cell.
func build(axes [][]level, setup []int) *cell {
	c := &cell{shards: 1, run: linearize.Config{Seed: *linSeed, Workers: 4}}
	c.cfg.MaxThreads = c.run.Workers + 2 // and the prefill and durability handles
	var names []string
	for a, i := range setup {
		l := axes[a][i]
		names = append(names, l.name)
		if l.edit != nil {
			l.edit(c)
		}
		if l.check != nil {
			c.checks = append(c.checks, l.check)
		}
	}
	c.name = strings.Join(names, "-")
	return c
}

// linAccepts reports whether New/NewSharded builds the setup's map and,
// when it reads history, whether the map's GetAt serves it.
func linAccepts(axes [][]level) func(setup []int) bool {
	return func(setup []int) bool {
		c := build(axes, setup)
		m, err := c.open()
		if err != nil {
			return false
		}
		defer m.(tscds.DurableMap).Close()
		th, _ := m.RegisterThread()
		defer th.Release()
		_, _, err = m.GetAt(th, 0, m.Now())
		return c.run.HistPct == 0 || !errors.Is(err, tscds.ErrHistoryUnsupported)
	}
}

// linCover is the matrix: the pairwise cover of the levels linAccepts
// takes together. The arm and source axes come first, so every (structure,
// technique, source) triple New accepts starts a cell.
var linCover = sync.OnceValues(func() ([][]level, [][]int) {
	axes := linAxes()
	return axes, pairwise(axes, linAccepts(axes))
})

// TestLinearizability is the paper's claim under stress, one subtest per
// cell: concurrent updates, point reads and range queries (and, in hist15
// cells, reads at captured past timestamps) admit a sequential witness,
// and every level's check holds. The cells share one budget of events;
// short mode (`make check`, CI) runs a fifth of it.
func TestLinearizability(t *testing.T) {
	axes, setups := linCover()
	events := 1_300_000
	if testing.Short() {
		events = 280_000
	}
	for _, setup := range setups {
		c := build(axes, setup)
		c.run.Ops = events / (len(setups) * c.run.Workers)
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var err error
			if c.m, err = c.open(); err != nil {
				t.Fatal(err)
			}
			if c.h, err = linearize.RunAndCheck(c.m, c.run); err != nil {
				t.Fatalf("%v\nreproduce: go test -race -run 'TestLinearizability/%s' . -linearize.seed=%d",
					err, c.name, c.run.Seed)
			}
			for _, check := range c.checks {
				check(t, c)
			}
			requireShape(t, c.m)
			t.Logf("%s", c.h.Summary())
		})
	}
}

// requireShape fails t unless m's shape holds once its workers have joined
// (tscds.Shape).
func requireShape(t *testing.T, m tscds.Map) {
	t.Helper()
	if _, _, err := tscds.Shape(m); err != nil {
		t.Errorf("shape: %v", err)
	}
}

// TestLinearizabilityCoversEveryPair: every pair of levels linAccepts takes
// runs in some cell, one subtest per pair, named <level>+<level>. So every
// (structure, technique, source) triple New accepts is a cell; every arm
// runs at 2 and 4 shards, pooled, at each retention and durable at
// SyncEvery 1 and 64; every arm with history reads it.
func TestLinearizabilityCoversEveryPair(t *testing.T) {
	axes, setups := linCover()
	for _, p := range acceptedPairs(axes, linAccepts(axes)) {
		a, b := axes[p.a][p.i].name, axes[p.b][p.j].name
		t.Run(a+"+"+b, func(t *testing.T) {
			if !slices.ContainsFunc(setups, func(s []int) bool { return s[p.a] == p.i && s[p.b] == p.j }) {
				t.Errorf("no cell runs %s beside %s", a, b)
			}
		})
	}
}

// adaptive runs the Adaptive source, and injects a TSC backstep halfway
// through worker 0's run that fails it over to the logical counter. An hour
// of ticks backwards is unambiguously a fault, and the counter's seed then
// dominates any reading taken just before.
func adaptive(c *cell) {
	h := tscds.NewTSCHealth(c.cfg.MaxThreads)
	c.cfg.Source, c.cfg.Health = tscds.Adaptive, h
	c.run.Midpoint = func() { h.InjectBackstep(uint64(time.Hour)) }
}

// checkSwitch: the backstep switched the source, timed, so a source that
// stops acting on its health cannot pass vacuously.
func checkSwitch(t *testing.T, c *cell) {
	if hs := c.cfg.Health.Snapshot(); hs.SourceSwitches < 1 || hs.SwitchTotalNS == 0 {
		t.Errorf("injected a backstep mid-run but the adaptive source never switched, or the switch was not timed (health: %+v)", hs)
	}
}

// histCheck checks the counts of historical reads and of their retention
// refusals: bad reports counts that contradict why.
func histCheck(why string, bad func(reads, trunc int) bool) func(*testing.T, *cell) {
	return func(t *testing.T, c *cell) {
		if reads, trunc := c.h.Count(linearize.OpGetAt, linearize.OpRangeAt); bad(reads, trunc) {
			t.Errorf("%d historical reads, %d refused, but %s", reads, trunc, why)
		}
	}
}

// shardStride spreads the harness's 128 keys over 8 key blocks, two of
// every shard at 4 shards, so a sharded cell has the flat cells'
// contention and still drives every shard and the cross-shard fan-out.
const shardStride = 16

// checkFanout: every shard served point operations and some read hit more
// than one shard, by the per-shard counts of the metrics.
func checkFanout(t *testing.T, c *cell) {
	reads, trunc := c.h.Count(linearize.OpRange, linearize.OpRangeAt, linearize.OpGetAt)
	var hits uint64
	for i, sh := range c.cfg.Metrics.Snapshot().Shards {
		if sh.Ops == 0 {
			t.Errorf("shard %d served no point operation", i)
		}
		hits += sh.RQs
	}
	if hits <= uint64(reads-trunc) {
		t.Errorf("%d range-shaped reads hit %d shards in all: none spanned two", reads-trunc, hits)
	}
}

// checkRecovered closes the durable map, reopens it over the same files and
// requires the recovered full range to be a crash-consistent state of the
// history: after a clean Close, its final one.
func checkRecovered(t *testing.T, c *cell) {
	if err := c.m.(tscds.DurableMap).Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m, err := c.open()
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m.(tscds.DurableMap).Close()
	th, _ := m.RegisterThread()
	defer th.Release()
	if err := linearize.CheckDurable(c.h, nil, m.RangeQuery(th, 0, tscds.MaxKey, nil)); err != nil {
		t.Errorf("recovered state: %v", err)
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
