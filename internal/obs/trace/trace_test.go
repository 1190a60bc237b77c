package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"tscds/internal/obs"
	"tscds/internal/tsc"
)

// TestNilRecorderSafe: a nil recorder must absorb every call.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	if r.Now() != 0 || r.RingSize() != 0 || r.Threads() != 0 {
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
		start := r.Now()
		r.Span(0, PhaseTraverse, start)
		r.Count(0, PhaseVersionWalk, 2)
		r.SharedSpan(PhaseLockWait, start)
		r.OpEnd(0, obs.OpRange, start, 5)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates %.1f per op", allocs)
	}
}

// TestEnabledRecorderNoAlloc: even recording must stay allocation-free
// (fixed rings, atomics only).
func TestEnabledRecorderNoAlloc(t *testing.T) {
	r := NewRecorder(1, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		start := r.Now()
		r.Span(0, PhaseTraverse, start)
		r.Count(0, PhaseRetry, 1)
		r.SharedCount(PhaseHelp, 1)
		r.OpEnd(0, obs.OpUpdate, r.Now(), 7)
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
	r := NewRecorder(2, 16)
	r.OpEnd(0, obs.OpUpdate, 0, 100)
	r.OpEnd(0, obs.OpUpdate, 0, 300)
	r.OpEnd(1, obs.OpRange, 0, 50)
	r.Count(0, PhaseVersionWalk, 4)
	r.Count(1, PhaseVersionWalk, 6)
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
	r := NewRecorder(1, 8)
	mark := r.Now()
	r.Span(0, PhaseTimestamp, mark)
	r.Count(0, PhaseBundleDeref, 3)
	end := r.Now()
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

	// Overflow: 20 more events into an 8-slot ring keeps only the last 8.
	for i := 0; i < 20; i++ {
		r.Count(0, PhaseRetry, uint64(i+1))
	}
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
	r := NewRecorder(2, 16)
	r.OpEnd(0, obs.OpContains, r.Now(), 9)
	r.Span(1, PhaseTraverse, r.Now())
	var parsed Snapshot
	if err := json.Unmarshal([]byte(r.Snapshot(true).JSON()), &parsed); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if parsed.Threads != 2 || parsed.Recorded != 2 {
		t.Fatalf("parsed = %+v", parsed)
	}
	if err := json.Unmarshal([]byte(r.String()), &parsed); err != nil {
		t.Fatalf("String JSON: %v", err)
	}
}

// TestFormatMentionsPhases: the human rendering names active phases.
func TestFormatMentionsPhases(t *testing.T) {
	r := NewRecorder(1, 16)
	r.OpEnd(0, obs.OpUpdate, r.Now(), 100)
	r.Span(0, PhaseLockWait, r.Now())
	r.Count(0, PhaseHelp, 5)
	out := r.Snapshot(false).Format()
	for _, want := range []string{"update", "lock-wait", "help", "1 thread(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
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
	r := NewRecorder(workers, 64)
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
				start := r.Now()
				r.Count(tid, PhaseRetry, 1)
				r.Span(tid, PhaseTraverse, start)
				r.SharedCount(PhaseHelp, 1)
				end := r.Now()
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
	r := NewRecorder(2, 8)
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
