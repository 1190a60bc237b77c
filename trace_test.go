package tscds

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestTraceSmoke drives every combo with the flight recorder attached
// and checks the snapshot reports the traffic: exact op counts per
// class, the phase spans each technique family is instrumented to emit,
// and a JSON rendering that round-trips.
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
			if !strings.Contains(snap.Format(), "ops:") {
				t.Fatalf("Format() lacks ops section:\n%s", snap.Format())
			}
		})
	}
}

// TestTraceEvents checks the event ring survives a live decode: events
// come back time-ordered with valid kinds.
func TestTraceEvents(t *testing.T) {
	m, err := New(BST, VCAS, Config{Source: Logical, MaxThreads: 2, Trace: &TraceConfig{RingSize: 256}})
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
