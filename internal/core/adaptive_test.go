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
	s := NewAdaptive(AdaptiveConfig{})
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
	s := NewAdaptive(AdaptiveConfig{Health: h, FailbackAfter: -1})
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
	s := NewAdaptive(AdaptiveConfig{Health: h, FailbackAfter: 8})
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
	if h.Degraded() {
		t.Fatal("degraded flag still set after failback")
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

func TestAdaptiveFailbackDisabled(t *testing.T) {
	h := tsc.NewHealth(1)
	s := NewAdaptive(AdaptiveConfig{Health: h, FailbackAfter: -1})
	h.InjectBackstep(1 << 30)
	s.Advance()
	for i := 0; i < 100000; i++ {
		s.Snapshot()
	}
	if !s.Degraded() || s.Generation() != 1 {
		t.Fatal("failback happened despite FailbackAfter < 0")
	}
}

func TestSnapshotValid(t *testing.T) {
	// Non-generational sources never invalidate.
	if !SnapshotValid(NewLogical(), 0) || !SnapshotValid(New(TSC), Pending) {
		t.Fatal("non-generational source invalidated a bound")
	}
	h := tsc.NewHealth(1)
	s := NewAdaptive(AdaptiveConfig{Health: h, FailbackAfter: -1})
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
	s := NewAdaptive(AdaptiveConfig{Health: h, FailbackAfter: 64})
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
	for _, k := range []Kind{TSC, TSCUnfenced, TSCCPUID, TSCRaw, Monotonic} {
		s := New(k)
		got := Actual(s)
		if tsc.Supported() && tsc.HasCounter() {
			if got != k {
				t.Errorf("Actual(%v) = %v on a supported host", k, got)
			}
		} else if !tsc.HasCounter() && k != Monotonic {
			if got != Monotonic {
				t.Errorf("Actual(%v) = %v without a hardware counter, want Monotonic", k, got)
			}
		}
	}
	// Logical sources are always exactly what they claim.
	if got := Actual(NewLogical()); got != Logical {
		t.Errorf("Actual(Logical) = %v", got)
	}
}
