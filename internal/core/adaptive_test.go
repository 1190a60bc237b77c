package core

import (
	"sync"
	"testing"
	"time"

	"tscds/internal/tsc"
)

func TestGenEncoding(t *testing.T) {
	ts := TS(3)<<GenShift | 42
	if GenOf(ts) != 3 {
		t.Fatalf("GenOf = %d, want 3", GenOf(ts))
	}
	if PayloadOf(ts) != 42 {
		t.Fatalf("PayloadOf = %d, want 42", PayloadOf(ts))
	}
	if GenOf(Pending) != MaxGen {
		t.Fatalf("GenOf(Pending) = %d, want MaxGen", GenOf(Pending))
	}
	// Any generation-g+1 value dominates any generation-g value.
	lo := TS(4)<<GenShift | PayloadMask
	hi := TS(5)<<GenShift | 1
	if hi <= lo {
		t.Fatal("higher generation does not dominate")
	}
}

func TestAdaptiveNoHealthStaysHardware(t *testing.T) {
	s := AdaptiveOver(nil, nil)
	if s.Kind() != Adaptive {
		t.Fatalf("Kind = %v", s.Kind())
	}
	if s.Generation() != 0 || s.Degraded() {
		t.Fatal("fresh adaptive source not in hardware generation 0")
	}
	prev := s.Advance()
	for i := 0; i < 10000; i++ {
		now := s.Advance()
		if now < prev {
			t.Fatalf("Advance went backwards %d -> %d", prev, now)
		}
		if GenOf(now) != 0 {
			t.Fatalf("generation drifted to %d with no health monitor", GenOf(now))
		}
		prev = now
	}
	if s.Peek() == Pending || s.Snapshot() == Pending {
		t.Fatal("adaptive source produced Pending")
	}
}

func TestAdaptiveFailoverOnDegraded(t *testing.T) {
	h := tsc.NewHealth(2)
	s := AdaptiveOver(h, nil)
	s.SetFailbackAfter(-1)
	before := s.Advance()
	if GenOf(before) != 0 {
		t.Fatalf("pre-fault generation = %d", GenOf(before))
	}
	h.InjectBackstep(1 << 30)
	after := s.Advance()
	if GenOf(after) != 1 {
		t.Fatalf("post-fault generation = %d, want 1", GenOf(after))
	}
	if !s.Degraded() {
		t.Fatal("source does not report degraded after failover")
	}
	if after <= before {
		t.Fatalf("timestamp moved backwards across failover: %d -> %d", before, after)
	}
	// Logical mode: payload seeded at or above the last hardware payload,
	// and strictly increasing from there.
	if PayloadOf(after) < PayloadOf(before) {
		t.Fatalf("payload moved backwards across failover: %d -> %d", PayloadOf(before), PayloadOf(after))
	}
	prev := after
	for i := 0; i < 1000; i++ {
		now := s.Advance()
		if now <= prev {
			t.Fatalf("logical mode not strictly increasing: %d -> %d", prev, now)
		}
		prev = now
	}
	snap := h.Snapshot()
	if snap.SourceSwitches != 1 {
		t.Fatalf("SourceSwitches = %d, want 1", snap.SourceSwitches)
	}
	if snap.SourceFailbacks != 0 {
		t.Fatalf("SourceFailbacks = %d, want 0", snap.SourceFailbacks)
	}
	if got := Actual(s); got != Logical {
		t.Fatalf("Actual = %v in failed-over mode, want Logical", got)
	}
}

func TestAdaptiveFailbackAfterQuiet(t *testing.T) {
	h := tsc.NewHealth(2)
	s := AdaptiveOver(h, nil)
	s.SetFailbackAfter(8)
	h.InjectBackstep(1 << 30)
	if got := GenOf(s.Advance()); got != 1 {
		t.Fatalf("generation after fault = %d, want 1", got)
	}
	// 8 fault-free snapshots trip the hysteresis back to hardware.
	var last TS
	for i := 0; i < 20 && s.Degraded(); i++ {
		last = s.Snapshot()
	}
	if s.Degraded() {
		t.Fatal("no failback after quiet snapshots")
	}
	if got := s.Generation(); got != 2 {
		t.Fatalf("generation after failback = %d, want 2", got)
	}
	now := s.Advance()
	if now <= last {
		t.Fatalf("timestamp moved backwards across failback: %d -> %d", last, now)
	}
	if got := GenOf(s.Peek()); got != 2 {
		t.Fatalf("generation after a fault-free failback = %d, want 2", got)
	}
	snap := h.Snapshot()
	if snap.SourceSwitches != 1 || snap.SourceFailbacks != 1 {
		t.Fatalf("switches=%d failbacks=%d, want 1/1", snap.SourceSwitches, snap.SourceFailbacks)
	}
	// A new fault fails over again, onto a fresh generation.
	h.InjectBackstep(1 << 30)
	if got := GenOf(s.Peek()); got != 3 {
		t.Fatalf("generation after second fault = %d, want 3", got)
	}
}

// Sources sharing one Health each decide for themselves: A fails over on
// a fault and back after its quiet stretch, and B, which ran nothing since
// the fault, still fails over at its next read. A, back on hardware, stays
// there: the fault is one it has seen.
func TestAdaptiveSharedHealthEachFailsOver(t *testing.T) {
	h := tsc.NewHealth(2)
	a, b := AdaptiveOver(h, nil), AdaptiveOver(h, nil)
	a.SetFailbackAfter(8)
	if GenOf(a.Advance()) != 0 || GenOf(b.Advance()) != 0 {
		t.Fatal("fresh sources not in hardware generation 0")
	}
	h.InjectBackstep(1 << 30)
	if got := GenOf(a.Advance()); got != 1 {
		t.Fatalf("A's generation after the fault = %d, want 1", got)
	}
	for i := 0; i < 20 && a.Degraded(); i++ {
		a.Snapshot()
	}
	if got := a.Generation(); got != 2 {
		t.Fatalf("A's generation after its quiet stretch = %d, want 2 (failed back)", got)
	}
	if got := GenOf(b.Peek()); got != 1 {
		t.Fatalf("B's generation at its first read since the fault = %d, want 1 (failed over)", got)
	}
	if got := GenOf(a.Advance()); got != 2 {
		t.Fatalf("A's generation after failback = %d, want 2", got)
	}
}

func TestAdaptiveFailbackDisabled(t *testing.T) {
	h := tsc.NewHealth(1)
	s := AdaptiveOver(h, nil)
	s.SetFailbackAfter(-1)
	h.InjectBackstep(1 << 30)
	s.Advance()
	for i := 0; i < 100000; i++ {
		s.Snapshot()
	}
	if !s.Degraded() || s.Generation() != 1 {
		t.Fatal("failback happened despite SetFailbackAfter(-1)")
	}
}

func TestSnapshotValid(t *testing.T) {
	// Non-generational sources never invalidate.
	if !SnapshotValid(New(Logical), 0) || !SnapshotValid(New(TSC), Pending) {
		t.Fatal("non-generational source invalidated a bound")
	}
	h := tsc.NewHealth(1)
	s := AdaptiveOver(h, nil)
	s.SetFailbackAfter(-1)
	bound := s.Snapshot()
	if !SnapshotValid(s, bound) {
		t.Fatal("fresh bound invalid")
	}
	h.InjectBackstep(1 << 30)
	s.Advance() // trips the failover
	if SnapshotValid(s, bound) {
		t.Fatal("pre-switch bound still valid after failover")
	}
	if !SnapshotValid(s, s.Snapshot()) {
		t.Fatal("post-switch bound invalid")
	}
}

func TestAdaptiveConcurrentSwitches(t *testing.T) {
	h := tsc.NewHealth(8)
	s := AdaptiveOver(h, nil)
	s.SetFailbackAfter(64)
	// One synchronous fault before the workers start guarantees at least
	// one failover regardless of scheduling.
	h.InjectBackstep(1 << 30)
	stop := make(chan struct{})
	injDone := make(chan struct{})
	// Fault injector: periodic backsteps force repeated failovers while
	// the hysteresis keeps failing back in between.
	go func() {
		defer close(injDone)
		for {
			select {
			case <-stop:
				return
			default:
				h.InjectBackstep(1 << 30)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := s.Advance()
			for i := 0; i < 20000; i++ {
				var now TS
				switch i % 3 {
				case 0:
					now = s.Advance()
				case 1:
					now = s.Snapshot()
				default:
					now = s.Peek()
				}
				if now < prev {
					select {
					case errs <- "timestamp went backwards across switches":
					default:
					}
					return
				}
				if now > prev {
					prev = now
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-injDone
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	snap := h.Snapshot()
	if snap.SourceSwitches == 0 {
		t.Fatal("no switches recorded under fault injection")
	}
	t.Logf("switches=%d failbacks=%d lastSwitch=%dns", snap.SourceSwitches, snap.SourceFailbacks, snap.LastSwitchNS)
}

func TestActualDisclosesFallback(t *testing.T) {
	want := Monotonic
	if tsc.Supported() {
		want = TSC
	}
	if got := Actual(New(TSC)); got != want {
		t.Errorf("Actual(TSC) = %v, want %v (RDTSCP supported: %v)", got, want, tsc.Supported())
	}
	// Logical and monotonic sources are always exactly what they claim.
	for _, k := range []Kind{Logical, Monotonic} {
		if got := Actual(New(k)); got != k {
			t.Errorf("Actual(%v) = %v", k, got)
		}
	}
}
