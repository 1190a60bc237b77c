package trace

import (
	"encoding/json"
	"math"
	"runtime"
	"sync"
	"testing"

	"tscds/internal/obs"
	"tscds/internal/tsc"
)

// exact builds a recorder that samples every operation, for the tests
// that assert exact counts.
func exact(maxThreads, ringSize int) *Recorder {
	r := NewRecorder(maxThreads, ringSize)
	RecordEveryOp(r)
	return r
}

// open opens an operation on tid the way the facade does and returns its
// start, 0 when the recorder does not sample it.
func open(r *Recorder, tid int) uint64 {
	if r.Sample(tid) {
		return r.Begin(tid)
	}
	return 0
}

// TestNilRecorderSafe: a nil recorder must absorb every call.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	if r.Sample(0) || r.Begin(0) != 0 || r.Now(0) != 0 || r.SharedNow() != 0 {
		t.Fatal("nil recorder samples or reads the clock")
	}
	if r.RingSize() != 0 || r.Threads() != 0 {
		t.Fatal("nil recorder reports nonzero dimensions")
	}
	r.OpEnd(0, obs.OpUpdate, 0, 10)
	r.Span(0, PhaseTraverse, 0)
	r.Count(0, PhaseRetry, 3)
	r.SharedSpan(PhaseLockWait, 0)
	r.SharedCount(PhaseRetry, 1)
	s := r.Snapshot(true)
	if s.Recorded != 0 || len(s.Events) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if r.String() != "{}" {
		t.Fatalf("nil String() = %q", r.String())
	}
}

// TestNilRecorderNoAlloc: the disabled path must not allocate — this is
// the contract that lets tscds leave instrumentation compiled in.
func TestNilRecorderNoAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		start := open(r, 0)
		r.Span(0, PhaseTraverse, r.Now(0))
		r.Count(0, PhaseVersionWalk, 2)
		r.SharedSpan(PhaseLockWait, start)
		r.OpEnd(0, obs.OpRange, start, 5)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates %.1f per op", allocs)
	}
}

// TestEnabledRecorderNoAlloc: even recording must stay allocation-free
// (a thread's ring is allocated once, by its first sampled operation;
// then atomics only).
func TestEnabledRecorderNoAlloc(t *testing.T) {
	r := exact(1, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		start := open(r, 0)
		r.Span(0, PhaseTraverse, r.Now(0))
		r.Count(0, PhaseRetry, 1)
		r.SharedCount(PhaseHelp, 1)
		end := r.Now(0)
		r.OpEnd(0, obs.OpUpdate, end, tsc.Elapsed(start, end))
	})
	if allocs != 0 {
		t.Fatalf("enabled recorder allocates %.1f per op", allocs)
	}
}

func TestRingSizeRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultRingSize}, {-5, DefaultRingSize}, {1, 1}, {2, 2}, {3, 4},
		{100, 128}, {256, 256}, {257, 512},
	}
	for _, c := range cases {
		if got := NewRecorder(1, c.in).RingSize(); got != c.want {
			t.Errorf("RingSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestSnapshotAggregates: ops and phases accumulate exactly.
func TestSnapshotAggregates(t *testing.T) {
	r := exact(2, 16)
	open(r, 0)
	open(r, 1)
	r.Count(0, PhaseVersionWalk, 4)
	r.Count(1, PhaseVersionWalk, 6)
	r.OpEnd(0, obs.OpUpdate, 0, 100)
	r.OpEnd(0, obs.OpUpdate, 0, 300)
	r.OpEnd(1, obs.OpRange, 0, 50)
	r.SharedCount(PhaseVersionWalk, 10)
	r.SharedCount(PhaseRetry, 2)

	s := r.Snapshot(false)
	ops := map[string]OpStatSnapshot{}
	for _, o := range s.Ops {
		ops[o.Op] = o
	}
	if u := ops["update"]; u.Count != 2 || u.SumNS != 400 || u.MeanNS != 200 {
		t.Fatalf("update agg = %+v", u)
	}
	if q := ops["range-query"]; q.Count != 1 || q.SumNS != 50 {
		t.Fatalf("range agg = %+v", q)
	}
	phases := map[string]PhaseStatSnapshot{}
	for _, p := range s.Phases {
		phases[p.Phase] = p
	}
	if vw := phases["version-walk"]; vw.Sum != 20 || vw.Count != 3 || vw.Max != 10 || vw.Unit != "events" {
		t.Fatalf("version-walk agg = %+v", vw)
	}
	if rt := phases["retry"]; rt.Sum != 2 {
		t.Fatalf("retry agg = %+v", rt)
	}
}

// TestEventsDecode: ring contents decode in order with correct tags and
// wrap correctly once the ring overflows. An event's time is the clock
// reading that also ended its duration: the one OpEnd is handed, the one
// Span takes.
func TestEventsDecode(t *testing.T) {
	r := exact(1, 8)
	open(r, 0)
	mark := r.Now(0)
	r.Span(0, PhaseTimestamp, mark)
	r.Count(0, PhaseBundleDeref, 3)
	end := r.Now(0)
	r.OpEnd(0, obs.OpRange, end, 42)

	s := r.Snapshot(true)
	if s.Recorded != 3 || len(s.Events) != 3 || s.Dropped != 0 {
		t.Fatalf("recorded=%d events=%d dropped=%d", s.Recorded, len(s.Events), s.Dropped)
	}
	kinds := []string{"span", "count", "op-end"}
	for i, ev := range s.Events {
		if ev.Kind != kinds[i] {
			t.Fatalf("event %d kind = %q, want %q", i, ev.Kind, kinds[i])
		}
	}
	if sp := s.Events[0]; sp.AtNS-sp.Value != tsc.Elapsed(r.start, mark) {
		t.Fatalf("span event %+v does not start at its mark (%d after the origin)", sp, tsc.Elapsed(r.start, mark))
	}
	if s.Events[1].Phase != "bundle-deref" || s.Events[1].Value != 3 {
		t.Fatalf("count event = %+v", s.Events[1])
	}
	if op := s.Events[2]; op.Op != "range-query" || op.Value != 42 || op.AtNS != tsc.Elapsed(r.start, end) {
		t.Fatalf("op-end event = %+v, want at %d", op, tsc.Elapsed(r.start, end))
	}

	// Overflow: 20 more events into an 8-slot ring keeps only the last 8
	// (the next operation's Begin writes what this one still held).
	for i := 0; i < 20; i++ {
		r.Count(0, PhaseRetry, uint64(i+1))
	}
	open(r, 0)
	s = r.Snapshot(true)
	if s.Recorded != 23 || len(s.Events) != 8 {
		t.Fatalf("after wrap: recorded=%d events=%d", s.Recorded, len(s.Events))
	}
	if first := s.Events[0]; first.Seq != 15 {
		t.Fatalf("oldest surviving seq = %d, want 15", first.Seq)
	}
}

// TestSnapshotJSONRoundTrip: JSON() must parse back into a Snapshot.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := exact(2, 16)
	open(r, 0)
	open(r, 1)
	r.OpEnd(0, obs.OpContains, r.Now(0), 9)
	r.Span(1, PhaseTraverse, r.Now(1))
	r.OpEnd(1, obs.OpRange, r.Now(1), 5)
	var parsed Snapshot
	if err := json.Unmarshal([]byte(r.Snapshot(true).JSON()), &parsed); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if parsed.Threads != 2 || parsed.Recorded != 3 {
		t.Fatalf("parsed = %+v", parsed)
	}
	if err := json.Unmarshal([]byte(r.String()), &parsed); err != nil {
		t.Fatalf("String JSON: %v", err)
	}
}

// TestConcurrentWritersAndReader: every thread hammers its own ring
// while a reader snapshots mid-flight. Run under -race (make check
// covers internal/obs/...). Aggregate counts must be exact; events may
// be dropped (lapped) but never torn into nonsense.
func TestConcurrentWritersAndReader(t *testing.T) {
	const (
		workers = 8
		perG    = 5000
	)
	r := exact(workers, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Reader: snapshot continuously while writers run.
	var rdWG sync.WaitGroup
	rdWG.Add(1)
	go func() {
		defer rdWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot(true)
			for _, ev := range s.Events {
				if ev.Kind == "unknown" {
					t.Error("torn event decoded with unknown kind")
					return
				}
				if ev.Thread < 0 || ev.Thread >= workers {
					t.Errorf("event thread %d out of range", ev.Thread)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				start := open(r, tid)
				r.Count(tid, PhaseRetry, 1)
				r.Span(tid, PhaseTraverse, start)
				r.SharedCount(PhaseHelp, 1)
				end := r.Now(tid)
				r.OpEnd(tid, obs.OpUpdate, end, tsc.Elapsed(start, end))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rdWG.Wait()

	s := r.Snapshot(true)
	ops := map[string]OpStatSnapshot{}
	for _, o := range s.Ops {
		ops[o.Op] = o
	}
	if got := ops["update"].Count; got != workers*perG {
		t.Fatalf("update count = %d, want %d", got, workers*perG)
	}
	phases := map[string]PhaseStatSnapshot{}
	for _, p := range s.Phases {
		phases[p.Phase] = p
	}
	if got := phases["retry"].Sum; got != workers*perG {
		t.Fatalf("retry sum = %d, want %d", got, workers*perG)
	}
	if got := phases["help"].Sum; got != workers*perG {
		t.Fatalf("help sum = %d, want %d", got, workers*perG)
	}
	if s.Recorded != workers*perG*3 {
		t.Fatalf("recorded = %d, want %d", s.Recorded, workers*perG*3)
	}
	// A quiescent snapshot decodes a full ring per thread, nothing torn.
	if len(s.Events) != workers*64 || s.Dropped != 0 {
		t.Fatalf("quiescent events = %d (dropped %d), want %d", len(s.Events), s.Dropped, workers*64)
	}
}

// TestOutOfRangeThreadIgnored: bad tids are dropped, not panics.
func TestOutOfRangeThreadIgnored(t *testing.T) {
	r := exact(2, 8)
	if r.Sample(-1) || r.Sample(2) || r.Begin(-1) != 0 || r.Begin(7) != 0 || r.Now(-1) != 0 {
		t.Fatal("out-of-range tid sampled")
	}
	r.OpEnd(-1, obs.OpUpdate, 0, 1)
	r.OpEnd(7, obs.OpUpdate, 0, 1)
	r.Span(99, PhaseTraverse, 0)
	r.Count(-3, PhaseRetry, 1)
	if s := r.Snapshot(true); s.Recorded != 0 {
		t.Fatalf("out-of-range tid recorded %d events", s.Recorded)
	}
}

func TestPhaseAndOpStrings(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() == "unknown" {
			t.Fatalf("phase %d has no name", p)
		}
		if p.IsSpan() && p.Unit() != "ns" || !p.IsSpan() && p.Unit() != "events" {
			t.Fatalf("phase %v unit mismatch", p)
		}
	}
	for o := obs.OpClass(0); o < obs.NumOpClasses; o++ {
		if o.String() == "unknown" {
			t.Fatalf("op %d has no name", o)
		}
	}
	if Phase(200).String() != "unknown" || obs.OpClass(200).String() != "unknown" {
		t.Fatal("out-of-range labels must be unknown")
	}
}

// TestRecorderRingsFollowThreads: a recorder allocates no ring up front —
// NewRecorder(256, 0) is a pointer per thread, not 256 rings — and a
// thread's ring appears with its first sampled operation. Snapshot reads
// only the rings that exist.
func TestRecorderRingsFollowThreads(t *testing.T) {
	tsc.TelemetryClock() // calibrated once per process, outside the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder(256, 0)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Fatalf("NewRecorder(256, 0) allocated %d B, want < 16 KB", got)
	}
	start := open(r, 7) // a thread's first operation is sampled
	if start == 0 {
		t.Fatal("thread 7's first operation not sampled")
	}
	r.Span(7, PhaseTraverse, start)
	if s := r.Snapshot(false); s.Recorded != 0 {
		t.Fatalf("%d events written before the operation ended, want them held", s.Recorded)
	}
	r.OpEnd(7, obs.OpContains, r.Now(7), 1)
	rings := 0
	for i := range r.rings {
		if r.rings[i].Load() != nil {
			rings++
		}
	}
	if rings != 1 || r.rings[7].Load() == nil {
		t.Fatalf("%d rings after thread 7 recorded, want thread 7's alone", rings)
	}
	s := r.Snapshot(true)
	if s.Threads != 1 || s.Recorded != 2 || len(s.Events) != 2 {
		t.Fatalf("snapshot threads=%d recorded=%d events=%d, want 1, 2, 2", s.Threads, s.Recorded, len(s.Events))
	}
	for _, ev := range s.Events {
		if ev.Thread != 7 {
			t.Fatalf("event %+v from a thread with no ring", ev)
		}
	}
}

// TestSampleOneInPeriod: a thread samples about one operation in
// SamplePeriod, with no aliasing against a periodic op pattern (here
// updates and lookups alternating), and Snapshot scales what the sampled
// ones recorded back to every operation's count; the shared block, which
// every operation reports to, stays exact. Unsampled operations record
// nothing: Now is 0 and Span, Count and OpEnd return at once.
func TestSampleOneInPeriod(t *testing.T) {
	const ops = SamplePeriod * 2000
	r := NewRecorder(1, 64)
	sampled := 0
	for i := 0; i < ops; i++ {
		c := obs.OpUpdate
		if i%2 == 1 {
			c = obs.OpContains
		}
		start := open(r, 0)
		if start != 0 {
			sampled++
		} else if r.Now(0) != 0 {
			t.Fatal("Now reads the clock in an unsampled operation")
		}
		r.Count(0, PhaseRetry, 1)
		r.SharedCount(PhaseHelp, 1)
		r.OpEnd(0, c, r.Now(0), 10)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 0.1*want }
	if !near(float64(sampled), ops/SamplePeriod) {
		t.Fatalf("sampled %d of %d operations, want about %d", sampled, ops, ops/SamplePeriod)
	}
	s := r.Snapshot(false)
	if s.SamplePeriod != SamplePeriod || s.Recorded != uint64(2*sampled) {
		t.Fatalf("period %d, recorded %d events, want %d and %d", s.SamplePeriod, s.Recorded, SamplePeriod, 2*sampled)
	}
	for _, o := range s.Ops {
		if !near(float64(o.Count), ops/2) || o.SumNS != 10*o.Count {
			t.Fatalf("%s: %d ops, %d ns estimated, want about %d ops of 10 ns", o.Op, o.Count, o.SumNS, ops/2)
		}
	}
	for _, p := range s.Phases {
		switch p.Phase {
		case "retry":
			if p.Sum != uint64(sampled)*SamplePeriod {
				t.Fatalf("retry sum %d, want %d sampled x %d", p.Sum, sampled, SamplePeriod)
			}
		case "help":
			if p.Sum != ops || p.Count != ops {
				t.Fatalf("shared help = %+v, want exactly %d", p, ops)
			}
		}
	}
}
