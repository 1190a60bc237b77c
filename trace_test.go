package tscds

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"tscds/internal/obs/trace"
	"tscds/internal/wal/faultfs"
)

// TestTraceSmoke drives every combo with the flight recorder attached,
// sampling every operation, and checks the snapshot reports the traffic:
// exact op counts per class, the phase spans each technique family is
// instrumented to emit, and a JSON rendering that round-trips.
func TestTraceSmoke(t *testing.T) {
	for _, c := range allCombos() {
		t.Run(fmt.Sprintf("%v-%v", c.S, c.T), func(t *testing.T) {
			m, err := New(c.S, c.T, Config{Source: Logical, MaxThreads: 4, Trace: &TraceConfig{}})
			if err != nil {
				t.Fatal(err)
			}
			if m.Tracer() == nil {
				t.Fatal("Tracer() = nil with Config.Trace set")
			}
			trace.RecordEveryOp(m.Tracer())
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			for k := uint64(0); k < 100; k++ {
				m.Insert(th, k, k)
			}
			for k := uint64(0); k < 50; k++ {
				m.Delete(th, k*2)
			}
			for k := uint64(0); k < 200; k++ {
				m.Contains(th, k)
			}
			var buf []KV
			for i := 0; i < 4; i++ {
				buf = m.RangeQuery(th, 0, 99, buf[:0])
			}

			snap := m.TraceSnapshot(false)
			if snap.Threads == 0 || snap.Recorded == 0 {
				t.Fatalf("empty snapshot: threads=%d recorded=%d", snap.Threads, snap.Recorded)
			}
			ops := map[string]uint64{}
			for _, o := range snap.Ops {
				ops[o.Op] = o.Count
			}
			if ops["update"] != 150 || ops["contains"] != 200 || ops["range-query"] != 4 {
				t.Fatalf("op counts = %v, want update=150 contains=200 range-query=4", ops)
			}
			phases := map[string]bool{}
			for _, p := range snap.Phases {
				phases[p.Phase] = true
			}
			// Every technique brackets the snapshot read and the range scan.
			for _, want := range []string{"timestamp-read", "traverse"} {
				if !phases[want] {
					t.Errorf("phase %q missing; have %v", want, phases)
				}
			}
			switch c.T {
			case Bundle:
				// Updates pass through the Prepare..Finalize labeling window
				// and range queries walk bundle chains.
				for _, want := range []string{"label", "bundle-deref"} {
					if !phases[want] {
						t.Errorf("Bundle phase %q missing; have %v", want, phases)
					}
				}
			case EBRRQ:
				// Both op sides cross the announcement RW lock.
				for _, want := range []string{"lock-wait", "limbo-scan"} {
					if !phases[want] {
						t.Errorf("EBR-RQ phase %q missing; have %v", want, phases)
					}
				}
			}

			var decoded TraceSnapshot
			if err := json.Unmarshal([]byte(snap.JSON()), &decoded); err != nil {
				t.Fatalf("snapshot JSON does not parse: %v", err)
			}
			if decoded.Recorded != snap.Recorded {
				t.Fatalf("round-trip recorded = %d, want %d", decoded.Recorded, snap.Recorded)
			}
		})
	}
}

// TestAllocSpanPerNode checks that the alloc phase times every node an
// update makes, not only its first: a BST insert into a non-empty tree
// makes the new leaf, a copy of the leaf it splits and the internal node
// over both (3 spans), and a Citrus delete of a node with two children
// makes the successor's relocation copy (1 span), a leaf delete none.
func TestAllocSpanPerNode(t *testing.T) {
	allocs := func(m Map) uint64 {
		for _, p := range m.TraceSnapshot(false).Phases {
			if p.Phase == "alloc" {
				return p.Count
			}
		}
		return 0
	}
	for _, c := range allCombos() {
		if c.S != BST && c.S != Citrus {
			continue
		}
		t.Run(fmt.Sprintf("%v-%v", c.S, c.T), func(t *testing.T) {
			m, err := New(c.S, c.T, Config{Source: Logical, MaxThreads: 2, Trace: &TraceConfig{}})
			if err != nil {
				t.Fatal(err)
			}
			trace.RecordEveryOp(m.Tracer())
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			m.Insert(th, 50, 50)
			before := allocs(m)
			for _, k := range []uint64{25, 75, 60, 90} {
				m.Insert(th, k, k)
			}
			if c.S == BST {
				if got := allocs(m) - before; got != 3*4 {
					t.Fatalf("4 inserts into a non-empty tree recorded %d alloc spans, want 12", got)
				}
				return
			}
			before = allocs(m)
			m.Delete(th, 90) // a leaf
			if got := allocs(m) - before; got != 0 {
				t.Fatalf("a leaf delete recorded %d alloc spans, want 0", got)
			}
			m.Delete(th, 50) // two children: 60 is relocated
			if got := allocs(m) - before; got != 1 {
				t.Fatalf("a two-child delete recorded %d alloc spans, want 1", got)
			}
		})
	}
}

// TestTraceEvents checks the event ring survives a live decode: events
// come back time-ordered with valid kinds.
func TestTraceEvents(t *testing.T) {
	m, err := New(BST, VCAS, Config{Source: Logical, MaxThreads: 2, Trace: &TraceConfig{}})
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
	snap := m.TraceSnapshot(true)
	if len(snap.Events) == 0 {
		t.Fatal("no events decoded")
	}
	last := uint64(0)
	for _, ev := range snap.Events {
		if ev.Kind == "unknown" {
			t.Fatalf("undecodable event %+v", ev)
		}
		if ev.AtNS < last {
			t.Fatalf("events out of order: %d after %d", ev.AtNS, last)
		}
		last = ev.AtNS
	}
}

// TestTraceDisabledNoAllocs is the guard the instrumentation is built
// around: with no sinks (the default) the read-side hot path must not
// allocate — every instrumentation point reduces to one nil test — and
// turning on Metrics and Trace must not change any op's allocation count,
// since clock reads, histogram stripes, ring writes and phase aggregation
// are allocation-free. Flat and across 4 shards. (Insert is measured by
// delta only: lfbst allocates its candidate node before discovering the
// key is present, instrumented or not.)
func TestTraceDisabledNoAllocs(t *testing.T) {
	names := [...]string{"contains", "get", "get-at", "delete-absent", "range-query", "insert-present"}
	for _, shards := range []int{0, 4} {
		off := sinkAllocProfile(t, shards, Config{})
		on := sinkAllocProfile(t, shards, Config{Metrics: NewMetrics(), Trace: &TraceConfig{}})
		for i, name := range names {
			if name != "insert-present" && off[i] != 0 {
				t.Errorf("shards=%d: %s allocates %.1f objects/op without sinks, want 0", shards, name, off[i])
			}
			if on[i] != off[i] {
				t.Errorf("shards=%d: %s: metrics and tracing change allocs/op from %.1f to %.1f", shards, name, off[i], on[i])
			}
		}
	}
}

// newMap builds (s, tech) flat when shards is 0, else across shards.
func newMap(t *testing.T, s Structure, tech Technique, shards int, cfg Config) Map {
	t.Helper()
	var m Map
	var err error
	if shards == 0 {
		m, err = New(s, tech, cfg)
	} else {
		m, err = NewSharded(s, tech, shards, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sinkAllocProfile(t *testing.T, shards int, cfg Config) [6]float64 {
	t.Helper()
	cfg.Source, cfg.MaxThreads = Logical, 2
	m := newMap(t, BST, VCAS, shards, cfg)
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Release()
	for k := uint64(0); k < 64; k++ {
		m.Insert(th, k, k)
	}
	ts := m.Now()
	buf := make([]KV, 0, 128)
	// One warm-up pass lets RangeQuery size its result before measuring.
	buf = m.RangeQuery(th, 0, 63, buf[:0])
	var p [6]float64
	p[0] = testing.AllocsPerRun(200, func() { m.Contains(th, 32) })
	p[1] = testing.AllocsPerRun(200, func() { m.Get(th, 32) })
	p[2] = testing.AllocsPerRun(200, func() {
		if _, ok, err := m.GetAt(th, 32, ts); !ok || err != nil {
			t.Fatalf("GetAt(32) = %v, %v", ok, err)
		}
	})
	p[3] = testing.AllocsPerRun(200, func() { m.Delete(th, 1<<40) })
	p[4] = testing.AllocsPerRun(200, func() { buf = m.RangeQuery(th, 0, 63, buf[:0]) })
	p[5] = testing.AllocsPerRun(200, func() { m.Insert(th, 32, 32) })
	return p
}

// TestTraceNilIsDefault checks the untraced facade stays inert: no
// recorder, zero snapshot, and a nil Tracer that still renders as
// empty JSON.
func TestTraceNilIsDefault(t *testing.T) {
	m, err := New(Citrus, Bundle, Config{Source: Logical, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Tracer() != nil {
		t.Fatal("Tracer() != nil without Config.Trace")
	}
	snap := m.TraceSnapshot(false)
	if snap.Recorded != 0 || snap.Threads != 0 || len(snap.Ops) != 0 {
		t.Fatalf("nil-trace snapshot not zero: %+v", snap)
	}
	if got := m.Tracer().String(); got != "{}" {
		t.Fatalf("nil Tracer String() = %q, want {}", got)
	}
}

// TestPhasesSumToOp: a sampled point read or update spends its time in
// the recorder's top-level phases — the structure's traverse and, on a
// durable map, the WAL append after it — so that, op by op, they cover
// at least 80 % of what the facade timed, and never overlap. Flat, on 4 shards (which
// forward the recorder to every shard) and on 4 durable shards, for each
// arm of the repository benchmark, at the default sampling period. A
// median over the sampled operations keeps a preempted one from deciding.
func TestPhasesSumToOp(t *testing.T) {
	type layout struct {
		name    string
		shards  int
		durable bool
	}
	arms := []combo{{BST, VCAS}, {SkipList, Bundle}, {Citrus, EBRRQ}}
	layouts := []layout{{"flat", 0, false}, {"s4", 4, false}, {"s4-wal", 4, true}}
	for _, c := range arms {
		for _, l := range layouts {
			t.Run(fmt.Sprintf("%v-%v/%s", c.S, c.T, l.name), func(t *testing.T) {
				cfg := Config{Source: Logical, MaxThreads: 3, Trace: &TraceConfig{}}
				if l.durable {
					cfg.Durability = &Durability{Dir: "wal", SyncEvery: 64, FS: faultfs.New(faultfs.Fault{})}
				}
				m := newMap(t, c.S, c.T, l.shards, cfg)
				if d, ok := m.(DurableMap); ok && l.durable {
					defer d.Close()
				}
				th, err := m.RegisterThread()
				if err != nil {
					t.Fatal(err)
				}
				defer th.Release()
				// The i-th key is a fixed permutation of [0, keys) (an odd
				// multiplier modulo a power of two), so the trees are built
				// in shuffled order, times a stride that spreads the keys
				// over every shard's blocks.
				const keys, stride = 4096, 97
				key := func(i uint64) uint64 { return i * 0x9e3779b1 % keys * stride }
				for i := uint64(0); i < keys; i++ {
					m.Insert(th, key(i), i)
				}
				ops := uint64(trace.SamplePeriod * 300)
				if testing.Short() {
					ops /= 5
				}
				reads := coverage(m, func(i uint64) { m.Get(th, key(i)) }, ops)
				updates := coverage(m, func(i uint64) {
					k := key(i)
					if i/keys%2 == 0 {
						m.Delete(th, k)
					} else {
						m.Insert(th, k, i)
					}
				}, ops)
				t.Logf("median coverage: reads %.2f, updates %.2f", reads, updates)
				for class, cov := range map[string]float64{"read": reads, "update": updates} {
					if cov < 0.8 || cov > 1 {
						t.Errorf("top-level phases cover %.2f of a sampled point %s (median), want 0.80 to 1 (above 1 they overlap)", cov, class)
					}
				}
			})
		}
	}
}

// coverage runs op n times on m and returns the median, over the sampled
// ones, of the share of each operation's duration its top-level phase
// spans cover. It reads the events in batches that the default ring holds.
func coverage(m Map, op func(i uint64), n uint64) float64 {
	top := map[string]bool{"traverse": true, "timestamp-read": true, "shard-fanout": true, "limbo-scan": true, "wal-append": true}
	const batch = trace.SamplePeriod * 32
	var shares []float64
	from := m.TraceSnapshot(false).Recorded
	for i := uint64(0); i < n; i++ {
		op(i)
		if (i+1)%batch != 0 && i+1 != n {
			continue
		}
		var spans uint64
		s := m.TraceSnapshot(true)
		for _, ev := range s.Events {
			switch {
			case ev.Seq < from:
			case ev.Kind == "span" && top[ev.Phase]:
				spans += ev.Value
			case ev.Kind == "op-end":
				if ev.Value > 0 {
					shares = append(shares, float64(spans)/float64(ev.Value))
				}
				spans = 0
			}
		}
		from = s.Recorded
	}
	if len(shares) == 0 {
		return 0
	}
	sort.Float64s(shares)
	return shares[len(shares)/2]
}
