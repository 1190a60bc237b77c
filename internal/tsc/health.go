package tsc

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
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

	// degraded is the fast-path flag consumed by adaptive timestamp
	// sources on their hot paths: one relaxed load answers "has any
	// fault been observed since the flag was last cleared". faultSeq
	// counts every observed fault (real, injected, or stall) and never
	// resets, so failback hysteresis can distinguish "flag cleared" from
	// "no new faults".
	degraded atomic.Uint32
	faultSeq atomic.Uint64
	injected atomic.Uint64 // synthetic faults from InjectBackstep
	stalls   atomic.Uint64 // stalled-source reports (AdvanceStrict gave up)

	// Source-switch telemetry reported by adaptive sources: failovers
	// (hardware -> logical), failbacks (logical -> hardware), and the
	// time spent inside the switch critical sections.
	switches     atomic.Uint64
	failbacks    atomic.Uint64
	switchNS     atomic.Uint64
	lastSwitchNS atomic.Uint64
	maxSwitchNS  atomic.Uint64

	slots []healthSlot

	mu     sync.Mutex
	probes []ProbeThread // last Probe results, per worker
}

// healthSlot is one registered thread's monitoring state (padded to its
// own cache lines, single-writer like core.Registry slots).
type healthSlot struct {
	_        [64]byte
	last     atomic.Uint64 // thread's previous fenced reading
	selfBack atomic.Uint64 // same-thread regressions
	count    atomic.Uint64
	lastCPU  atomic.Uint64 // IA32_TSC_AUX of the last sample
	_        [24]byte
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
	now, cpu := ReadWithCPU()
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
		s.lastCPU.Store(uint64(cpu))
	}
}

func (h *Health) noteBack(delta uint64) {
	h.noteFault()
	for {
		cur := h.maxBack.Load()
		if delta <= cur || h.maxBack.CompareAndSwap(cur, delta) {
			return
		}
	}
}

// noteFault bumps the fault sequence and raises the degraded flag. The
// sequence is bumped first so a failback that observes the new sequence
// number can re-raise the flag it is about to clear.
func (h *Health) noteFault() {
	h.faultSeq.Add(1)
	h.degraded.Store(1)
}

// Degraded reports whether any fault — a cross-thread or same-thread
// regression, an injected backstep, or a stalled-source report — has
// been observed since the flag was last cleared. One atomic load;
// adaptive sources consult it on their timestamp hot paths. Nil-safe
// (false).
func (h *Health) Degraded() bool {
	return h != nil && h.degraded.Load() != 0
}

// ClearDegraded lowers the fast-path flag, typically after a failback
// once the fault hysteresis has elapsed. Cumulative fault counters and
// FaultSeq are untouched; any new fault re-raises the flag. Nil-safe.
func (h *Health) ClearDegraded() {
	if h != nil {
		h.degraded.Store(0)
	}
}

// RaiseDegraded re-raises the fast-path flag without recording a new
// fault. Adaptive sources use it to undo a ClearDegraded that raced
// with a concurrent fault (detected via FaultSeq). Nil-safe.
func (h *Health) RaiseDegraded() {
	if h != nil {
		h.degraded.Store(1)
	}
}

// FaultSeq returns a counter incremented on every observed fault. It
// never resets, so callers can detect "no new faults since I last
// looked" regardless of the degraded flag's state. Nil yields 0.
func (h *Health) FaultSeq() uint64 {
	if h == nil {
		return 0
	}
	return h.faultSeq.Load()
}

// InjectBackstep is the injectable fault hook: it simulates a TSC that
// jumped back by delta ticks by publishing a maximum delta above the
// current reading. The next genuine Sample on any thread then observes
// a real cross-thread regression, and the degraded flag is raised
// immediately so adaptive sources react without waiting for a sample.
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

// NoteStall records that a strict timestamp acquisition exhausted its
// spin budget against a source that would not move — the signature of a
// frozen or severely degraded counter. Counts as a fault. Nil-safe.
func (h *Health) NoteStall() {
	if h == nil {
		return
	}
	h.stalls.Add(1)
	h.noteFault()
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

// ProbeThread is one worker's result from Probe.
type ProbeThread struct {
	Thread   int     `json:"thread"`
	CPU      uint32  `json:"cpu"`
	Samples  uint64  `json:"samples"`
	DriftPPM float64 `json:"drift_ppm"` // rate deviation vs. calibration
	MaxGapNS float64 `json:"max_gap_ns"`
}

// Probe runs an active cross-check: workers goroutines, each pinned to
// an OS thread, hammer fenced reads for the given duration while the
// max-chain detector watches for ordering violations, and each worker
// re-measures its local tick rate against the wall clock to estimate
// drift. Results land in the snapshot. Nil-safe (no-op).
func (h *Health) Probe(workers int, d time.Duration) {
	if h == nil {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(h.slots) {
		workers = len(h.slots)
	}
	if d <= 0 {
		d = 20 * time.Millisecond
	}
	results := make([]ProbeThread, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := time.Now()
			c0 := ReadFenced()
			var n uint64
			var maxGap uint64
			prev := c0
			for time.Since(t0) < d {
				h.Sample(tid)
				now := ReadFenced()
				if now > prev && now-prev > maxGap {
					maxGap = now - prev
				}
				prev = now
				n++
			}
			c1 := ReadFenced()
			el := time.Since(t0)
			res := ProbeThread{Thread: tid, Samples: n}
			_, res.CPU = ReadWithCPU()
			if el > 0 && c1 > c0 && h.ticksPerNS > 0 {
				local := float64(c1-c0) / float64(el.Nanoseconds())
				res.DriftPPM = (local - h.ticksPerNS) / h.ticksPerNS * 1e6
				res.MaxGapNS = float64(maxGap) / h.ticksPerNS
			}
			results[tid] = res
		}(w)
	}
	wg.Wait()
	h.mu.Lock()
	h.probes = results
	h.mu.Unlock()
}

// Health states, ordered by decreasing trust in the counter.
const (
	// StateHealthy: invariant TSC, no regressions observed.
	StateHealthy = "healthy"
	// StateDegraded: hardware TSC in use but regressions or heavy drift
	// were observed; timestamps may mis-order operations across cores.
	StateDegraded = "degraded"
	// StateFallback: no usable hardware TSC; accessors serve the
	// monotonic clock (correct, but with none of TSC's cost advantage).
	StateFallback = "fallback"
)

// ThreadHealth is one registered thread's passive-sampling state.
type ThreadHealth struct {
	Thread      int    `json:"thread"`
	Samples     uint64 `json:"samples"`
	SelfBack    uint64 `json:"self_regressions"`
	LastCPU     uint64 `json:"last_cpu"`
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
	SourceStalls     uint64         `json:"source_stalls,omitempty"`
	SourceSwitches   uint64         `json:"source_switches"`
	SourceFailbacks  uint64         `json:"source_failbacks"`
	SwitchTotalNS    uint64         `json:"switch_total_ns,omitempty"`
	LastSwitchNS     uint64         `json:"last_switch_ns,omitempty"`
	MaxSwitchNS      uint64         `json:"max_switch_ns,omitempty"`
	Threads          []ThreadHealth `json:"threads,omitempty"`
	Probes           []ProbeThread  `json:"probes,omitempty"`
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
	s.SourceStalls = h.stalls.Load()
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
			LastCPU:  sl.lastCPU.Load(),
		}
		th.OffsetTicks = int64(sl.last.Load()) - int64(max)
		selfBack += th.SelfBack
		s.Threads = append(s.Threads, th)
	}
	h.mu.Lock()
	s.Probes = append([]ProbeThread(nil), h.probes...)
	h.mu.Unlock()

	const driftWarnPPM = 500.0
	var worstDrift float64
	for _, p := range s.Probes {
		if d := p.DriftPPM; d > worstDrift || -d > worstDrift {
			if d < 0 {
				d = -d
			}
			worstDrift = d
		}
	}
	switch {
	case !Supported() || !Invariant():
		s.State = StateFallback
		if !Supported() {
			s.Warnings = append(s.Warnings, "no RDTSCP on this platform; accessors serve the monotonic clock")
		} else {
			s.Warnings = append(s.Warnings, "TSC is not invariant; accessors serve the monotonic clock")
		}
	case s.CrossRegressions > 0 || selfBack > 0 || worstDrift > driftWarnPPM ||
		s.InjectedFaults > 0 || s.SourceStalls > 0:
		s.State = StateDegraded
		if s.CrossRegressions > 0 {
			s.Warnings = append(s.Warnings, fmt.Sprintf(
				"%d cross-thread regression(s), worst backstep %.0fns: cores disagree; snapshot ordering may be violated",
				s.CrossRegressions, s.MaxBackstepNS))
		}
		if selfBack > 0 {
			s.Warnings = append(s.Warnings, fmt.Sprintf("%d same-thread regression(s) observed", selfBack))
		}
		if worstDrift > driftWarnPPM {
			s.Warnings = append(s.Warnings, fmt.Sprintf("per-core rate drift up to %.0f ppm vs. calibration", worstDrift))
		}
		if s.InjectedFaults > 0 {
			s.Warnings = append(s.Warnings, fmt.Sprintf("%d injected backstep(s) (fault-injection harness)", s.InjectedFaults))
		}
		if s.SourceStalls > 0 {
			s.Warnings = append(s.Warnings, fmt.Sprintf("%d stalled-source report(s): strict advance exhausted its spin budget", s.SourceStalls))
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
