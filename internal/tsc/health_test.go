package tsc

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestHealthNilSafe(t *testing.T) {
	var h *Health
	h.Sample(0)
	if h.TicksPerNS() != 0 {
		t.Fatal("nil TicksPerNS != 0")
	}
	s := h.Snapshot()
	if s.State != StateFallback {
		t.Fatalf("nil state = %q, want fallback", s.State)
	}
}

func TestHealthCalibration(t *testing.T) {
	h := NewHealth(4)
	if h.TicksPerNS() <= 0 {
		t.Fatalf("ticks/ns = %v, want > 0", h.TicksPerNS())
	}
	// The fallback clock and any real TSC both run within [0.01, 100]
	// ticks per nanosecond; anything outside means calibration is broken.
	if r := h.TicksPerNS(); r < 0.01 || r > 100 {
		t.Fatalf("implausible tick rate %v/ns", r)
	}
}

func TestHealthSampleAndSnapshot(t *testing.T) {
	h := NewHealth(2)
	for i := 0; i < 100; i++ {
		h.Sample(0)
		h.Sample(1)
	}
	s := h.Snapshot()
	if s.Samples != 200 {
		t.Fatalf("samples = %d, want 200", s.Samples)
	}
	if len(s.Threads) != 2 {
		t.Fatalf("threads = %d, want 2", len(s.Threads))
	}
	for _, th := range s.Threads {
		if th.Samples != 100 {
			t.Fatalf("thread %d samples = %d, want 100", th.Thread, th.Samples)
		}
		if th.OffsetTicks > 0 {
			t.Fatalf("thread %d offset %d > 0 (last reading above global max?)", th.Thread, th.OffsetTicks)
		}
	}
	if s.State != StateHealthy && s.State != StateDegraded && s.State != StateFallback {
		t.Fatalf("state = %q", s.State)
	}
	// The fallback monotonic clock can never regress; a real invariant
	// TSC on healthy hardware should not either.
	if !Supported() {
		if s.State != StateFallback {
			t.Fatalf("state = %q without hardware TSC, want fallback", s.State)
		}
		if len(s.Warnings) == 0 {
			t.Fatal("fallback state must carry a warning")
		}
	}
}

// TestHealthConcurrentSampling: Sample from many goroutines while
// snapshotting (exercised under -race via make check).
func TestHealthConcurrentSampling(t *testing.T) {
	const workers = 8
	h := NewHealth(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h.Sample(tid)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			h.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := h.Snapshot().Samples; got != workers*2000 {
		t.Fatalf("samples = %d, want %d", got, workers*2000)
	}
}

// TestHealthHandoffSamplesAgree: two threads take turns sampling, each
// turn handed over by a channel, so every Sample happens-after the one
// before it on the other thread. The fallback clock and an invariant
// TSC then never read below the published maximum or the thread's own
// last reading: no regression is counted and the monitor stays healthy.
func TestHealthHandoffSamplesAgree(t *testing.T) {
	const rounds = 2000
	h := NewHealth(2)
	ping, pong := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ping {
			h.Sample(1)
			pong <- struct{}{}
		}
	}()
	for i := 0; i < rounds; i++ {
		h.Sample(0)
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-done

	s := h.Snapshot()
	if s.Samples != 2*rounds {
		t.Fatalf("samples = %d, want %d", s.Samples, 2*rounds)
	}
	if s.CrossRegressions != 0 || s.MaxBackstepTicks != 0 {
		t.Fatalf("handoff-ordered samples counted %d cross regressions (worst %d ticks)",
			s.CrossRegressions, s.MaxBackstepTicks)
	}
	for _, th := range s.Threads {
		if th.Samples != rounds || th.SelfBack != 0 {
			t.Fatalf("thread %d: samples %d, self regressions %d", th.Thread, th.Samples, th.SelfBack)
		}
	}
	if got := h.FaultSeq(); got != 0 {
		t.Fatalf("FaultSeq = %d without a regression, want 0", got)
	}
	if Supported() && s.State != StateHealthy {
		t.Fatalf("state = %q on an invariant TSC, want healthy", s.State)
	}
}

func TestHealthJSON(t *testing.T) {
	h := NewHealth(2)
	h.Sample(0)
	var s HealthSnapshot
	if err := json.Unmarshal([]byte(h.String()), &s); err != nil {
		t.Fatalf("health JSON: %v", err)
	}
	if s.TicksPerNS <= 0 {
		t.Fatalf("parsed ticks/ns = %v", s.TicksPerNS)
	}
	var nilH *Health
	if err := json.Unmarshal([]byte(nilH.String()), &s); err != nil {
		t.Fatalf("nil health JSON: %v", err)
	}
}

// Every fault moves FaultSeq, and nothing resets it.
func TestHealthFaultSeq(t *testing.T) {
	h := NewHealth(2)
	if got := h.FaultSeq(); got != 0 {
		t.Fatalf("fresh FaultSeq = %d, want 0", got)
	}
	h.InjectBackstep(1_000_000)
	seq := h.FaultSeq()
	if seq == 0 {
		t.Fatal("InjectBackstep did not bump FaultSeq")
	}
	h.InjectBackstep(1_000_000)
	if got := h.FaultSeq(); got <= seq {
		t.Fatalf("a second InjectBackstep did not bump FaultSeq (%d -> %d)", seq, got)
	}

	// Nil receivers are inert.
	var nilH *Health
	nilH.InjectBackstep(1)
	nilH.NoteSourceSwitch(false, time.Microsecond)
	if nilH.FaultSeq() != 0 {
		t.Fatal("nil Health not inert")
	}
}

func TestHealthInjectBackstepObservedBySample(t *testing.T) {
	h := NewHealth(1)
	h.Sample(0)
	before := h.Snapshot().CrossRegressions
	// Publish a maximum far above anything the clock will reach during
	// the test, so the next genuine sample observes a regression.
	h.InjectBackstep(uint64(time.Hour))
	h.Sample(0)
	s := h.Snapshot()
	if s.CrossRegressions <= before {
		t.Fatalf("cross regressions %d -> %d; injected backstep not observed", before, s.CrossRegressions)
	}
	if s.InjectedFaults != 1 {
		t.Fatalf("InjectedFaults = %d, want 1", s.InjectedFaults)
	}
	if s.State != StateDegraded && s.State != StateFallback {
		t.Fatalf("state = %q after injected fault, want degraded (or fallback without hardware)", s.State)
	}
	if s.State == StateDegraded && len(s.Warnings) == 0 {
		t.Fatal("degraded state must carry warnings")
	}
}

func TestHealthSourceSwitchTelemetry(t *testing.T) {
	h := NewHealth(1)
	h.NoteSourceSwitch(false, 500*time.Nanosecond)
	h.NoteSourceSwitch(false, 2*time.Microsecond)
	h.NoteSourceSwitch(true, time.Microsecond)
	s := h.Snapshot()
	if s.SourceSwitches != 2 {
		t.Fatalf("SourceSwitches = %d, want 2", s.SourceSwitches)
	}
	if s.SourceFailbacks != 1 {
		t.Fatalf("SourceFailbacks = %d, want 1", s.SourceFailbacks)
	}
	if want := uint64(3500); s.SwitchTotalNS != want {
		t.Fatalf("SwitchTotalNS = %d, want %d", s.SwitchTotalNS, want)
	}
	if s.LastSwitchNS != 1000 {
		t.Fatalf("LastSwitchNS = %d, want 1000", s.LastSwitchNS)
	}
	if s.MaxSwitchNS != 2000 {
		t.Fatalf("MaxSwitchNS = %d, want 2000", s.MaxSwitchNS)
	}
	// Switch telemetry alone is not a fault.
	if got := h.FaultSeq(); got != 0 {
		t.Fatalf("NoteSourceSwitch moved FaultSeq to %d", got)
	}
}

// An injected fault alone, with no sample to observe it, still leaves the
// snapshot out of the healthy state.
func TestHealthInjectedFaultCountsAsFault(t *testing.T) {
	h := NewHealth(1)
	h.InjectBackstep(1)
	s := h.Snapshot()
	if s.InjectedFaults != 1 {
		t.Fatalf("InjectedFaults = %d, want 1", s.InjectedFaults)
	}
	if s.State == StateHealthy {
		t.Fatal("injected fault left state healthy")
	}
}

func TestHealthOutOfRangeThread(t *testing.T) {
	h := NewHealth(1)
	h.Sample(-1)
	h.Sample(5)
	if got := len(h.Snapshot().Threads); got != 0 {
		t.Fatalf("out-of-range tids produced %d thread entries", got)
	}
}
