package tsc

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
)

// Health monitors whether the machine's TSC actually delivers the two
// properties the paper's algorithms assume — monotonicity within a
// thread and agreement across threads — and degrades to a labeled
// warning state instead of letting skewed timestamps silently corrupt
// snapshot ordering.
//
// Detection works on a global max-chain: every Sample publishes the
// largest fenced reading seen so far. A sampler first loads that
// maximum and then issues RDTSCP; because RDTSCP waits for preceding
// instructions (including the load), a fresh reading *below* an
// already-published maximum is a genuine cross-thread ordering
// violation, not a race. Per-thread backsteps are tracked the same way
// against the thread's own last reading. The observed shortfalls bound
// pairwise core offsets from below.
//
// Like the rest of the observability layer, a nil *Health is inert.
type Health struct {
	createdAt  time.Time
	ticksPerNS float64

	maxSeen   atomic.Uint64 // largest fenced reading published by any thread
	crossBack atomic.Uint64 // cross-thread regressions detected
	maxBack   atomic.Uint64 // worst regression magnitude (ticks)
	samples   atomic.Uint64

	// faultSeq counts every observed fault (real or injected) and never
	// resets: an adaptive source compares it with the value it last
	// trusted, on its hot paths and in its failback hysteresis.
	faultSeq atomic.Uint64
	injected atomic.Uint64 // synthetic faults from InjectBackstep

	// Source-switch telemetry reported by adaptive sources: failovers
	// (hardware -> logical), failbacks (logical -> hardware), and the
	// time spent inside the switch critical sections.
	switches     atomic.Uint64
	failbacks    atomic.Uint64
	switchNS     atomic.Uint64
	lastSwitchNS atomic.Uint64
	maxSwitchNS  atomic.Uint64

	slots []healthSlot
}

// healthSlot is one registered thread's monitoring state (padded to its
// own cache lines, single-writer like core.Registry slots).
type healthSlot struct {
	_        [64]byte
	last     atomic.Uint64 // thread's previous fenced reading
	selfBack atomic.Uint64 // same-thread regressions
	count    atomic.Uint64
	_        [32]byte
}

// NewHealth builds a monitor for thread IDs in [0, maxThreads) and
// calibrates the tick→ns ratio against the wall clock over a short
// window (~2ms; irrelevant for the fallback clock, where the ratio is 1).
func NewHealth(maxThreads int) *Health {
	if maxThreads <= 0 {
		maxThreads = 1
	}
	h := &Health{
		createdAt: time.Now(),
		slots:     make([]healthSlot, maxThreads),
	}
	var last uint64
	h.ticksPerNS, last = calibrate(ReadFenced)
	h.maxSeen.Store(last)
	return h
}

// TicksPerNS returns the calibrated TSC rate (0 for nil).
func (h *Health) TicksPerNS() float64 {
	if h == nil {
		return 0
	}
	return h.ticksPerNS
}

// Sample takes one fenced reading on the calling thread and checks it
// against the thread's previous reading and the global maximum. Call it
// from hot paths sparingly (e.g. once per range query); one sample costs
// two fenced reads' worth of atomics. Nil-safe.
func (h *Health) Sample(tid int) {
	if h == nil {
		return
	}
	prevMax := h.maxSeen.Load()
	now := ReadFenced()
	h.samples.Add(1)
	if now < prevMax {
		// RDTSCP ordered this read after the load of prevMax, so some
		// thread published a larger value before we read: a real
		// cross-thread monotonicity violation.
		h.crossBack.Add(1)
		h.noteBack(prevMax - now)
	} else {
		for {
			cur := h.maxSeen.Load()
			if now <= cur || h.maxSeen.CompareAndSwap(cur, now) {
				break
			}
		}
	}
	if tid >= 0 && tid < len(h.slots) {
		s := &h.slots[tid]
		if last := s.last.Load(); now < last {
			s.selfBack.Add(1)
			h.noteBack(last - now)
		}
		s.last.Store(now)
		s.count.Add(1)
	}
}

func (h *Health) noteBack(delta uint64) {
	h.faultSeq.Add(1)
	for {
		cur := h.maxBack.Load()
		if delta <= cur || h.maxBack.CompareAndSwap(cur, delta) {
			return
		}
	}
}

// FaultSeq returns a counter incremented on every observed fault — a
// cross-thread or same-thread regression or an injected backstep. It
// never resets, so a caller that keeps the value it last saw detects
// "a fault since I last looked" with one load. Nil yields 0.
func (h *Health) FaultSeq() uint64 {
	if h == nil {
		return 0
	}
	return h.faultSeq.Load()
}

// InjectBackstep is the injectable fault hook: it simulates a TSC that
// jumped back by delta ticks by publishing a maximum delta above the
// current reading. The next genuine Sample on any thread then observes
// a real cross-thread regression, and the fault is counted at once
// (FaultSeq) so adaptive sources react without waiting for a sample.
// Test- and chaos-harness-only; nil-safe.
func (h *Health) InjectBackstep(delta uint64) {
	if h == nil {
		return
	}
	now := ReadFenced()
	for {
		cur := h.maxSeen.Load()
		target := now + delta
		if target <= cur || h.maxSeen.CompareAndSwap(cur, target) {
			break
		}
	}
	h.injected.Add(1)
	h.noteBack(delta)
}

// NoteSourceSwitch records one adaptive-source generation switch:
// failback false is a failover (hardware -> logical), true the return
// trip. d is the time spent inside the switch critical section. The
// counts and latencies surface on the /tschealth endpoint. Nil-safe.
func (h *Health) NoteSourceSwitch(failback bool, d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d.Nanoseconds())
	}
	if failback {
		h.failbacks.Add(1)
	} else {
		h.switches.Add(1)
	}
	h.switchNS.Add(ns)
	h.lastSwitchNS.Store(ns)
	for {
		cur := h.maxSwitchNS.Load()
		if ns <= cur || h.maxSwitchNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Health states, ordered by decreasing trust in the counter.
const (
	// StateHealthy: invariant TSC, no regressions observed.
	StateHealthy = "healthy"
	// StateDegraded: hardware TSC in use but regressions were observed;
	// timestamps may mis-order operations across cores.
	StateDegraded = "degraded"
	// StateFallback: the TSC is not trusted (Supported is false: no
	// RDTSCP, or not invariant); ReadFenced, a TSC source and the
	// telemetry clock serve the monotonic clock (correct, but with none
	// of TSC's cost advantage).
	StateFallback = "fallback"
)

// ThreadHealth is one registered thread's passive-sampling state.
type ThreadHealth struct {
	Thread      int    `json:"thread"`
	Samples     uint64 `json:"samples"`
	SelfBack    uint64 `json:"self_regressions"`
	OffsetTicks int64  `json:"offset_ticks"` // last reading minus global max (≤0 lag bound)
}

// HealthSnapshot is a point-in-time health report, JSON-ready for the
// /tschealth endpoint.
type HealthSnapshot struct {
	State            string         `json:"state"`
	Supported        bool           `json:"supported"`
	Invariant        bool           `json:"invariant"`
	TicksPerNS       float64        `json:"ticks_per_ns"`
	UptimeNS         int64          `json:"uptime_ns"`
	Samples          uint64         `json:"samples"`
	CrossRegressions uint64         `json:"cross_regressions"`
	MaxBackstepTicks uint64         `json:"max_backstep_ticks"`
	MaxBackstepNS    float64        `json:"max_backstep_ns"`
	InjectedFaults   uint64         `json:"injected_faults,omitempty"`
	SourceSwitches   uint64         `json:"source_switches"`
	SourceFailbacks  uint64         `json:"source_failbacks"`
	SwitchTotalNS    uint64         `json:"switch_total_ns,omitempty"`
	LastSwitchNS     uint64         `json:"last_switch_ns,omitempty"`
	MaxSwitchNS      uint64         `json:"max_switch_ns,omitempty"`
	Threads          []ThreadHealth `json:"threads,omitempty"`
	Warnings         []string       `json:"warnings,omitempty"`
}

// Snapshot summarizes everything observed so far. Nil yields a zero
// fallback-state report.
func (h *Health) Snapshot() HealthSnapshot {
	s := HealthSnapshot{
		Supported: Supported(),
		Invariant: Invariant(),
	}
	if h == nil {
		s.State = StateFallback
		return s
	}
	s.TicksPerNS = h.ticksPerNS
	s.UptimeNS = time.Since(h.createdAt).Nanoseconds()
	s.Samples = h.samples.Load()
	s.CrossRegressions = h.crossBack.Load()
	s.MaxBackstepTicks = h.maxBack.Load()
	if h.ticksPerNS > 0 {
		s.MaxBackstepNS = float64(s.MaxBackstepTicks) / h.ticksPerNS
	}
	s.InjectedFaults = h.injected.Load()
	s.SourceSwitches = h.switches.Load()
	s.SourceFailbacks = h.failbacks.Load()
	s.SwitchTotalNS = h.switchNS.Load()
	s.LastSwitchNS = h.lastSwitchNS.Load()
	s.MaxSwitchNS = h.maxSwitchNS.Load()
	var selfBack uint64
	max := h.maxSeen.Load()
	for i := range h.slots {
		sl := &h.slots[i]
		if sl.count.Load() == 0 {
			continue
		}
		th := ThreadHealth{
			Thread:   i,
			Samples:  sl.count.Load(),
			SelfBack: sl.selfBack.Load(),
		}
		th.OffsetTicks = int64(sl.last.Load()) - int64(max)
		selfBack += th.SelfBack
		s.Threads = append(s.Threads, th)
	}
	switch {
	case !Supported():
		s.State = StateFallback
		s.Warnings = append(s.Warnings, "no RDTSCP with an invariant TSC; fenced reads, TSC sources and the telemetry clock serve the monotonic clock")
	case s.CrossRegressions > 0 || selfBack > 0 || s.InjectedFaults > 0:
		s.State = StateDegraded
		if s.CrossRegressions > 0 {
			s.Warnings = append(s.Warnings, fmt.Sprintf(
				"%d cross-thread regression(s), worst backstep %.0fns: cores disagree; snapshot ordering may be violated",
				s.CrossRegressions, s.MaxBackstepNS))
		}
		if selfBack > 0 {
			s.Warnings = append(s.Warnings, fmt.Sprintf("%d same-thread regression(s) observed", selfBack))
		}
		if s.InjectedFaults > 0 {
			s.Warnings = append(s.Warnings, fmt.Sprintf("%d injected backstep(s) (fault-injection harness)", s.InjectedFaults))
		}
	default:
		s.State = StateHealthy
	}
	return s
}

// String renders the snapshot as JSON (expvar-style Var).
func (h *Health) String() string {
	b, err := json.Marshal(h.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}
