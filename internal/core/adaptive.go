package core

import (
	"sync"
	"sync/atomic"
	"time"

	"tscds/internal/tsc"
)

// Timestamp generation encoding. Every TS produced by an AdaptiveSource
// carries a source generation in its top GenBits bits and the source's
// reading in the low bits:
//
//	TS = generation<<GenShift | payload
//
// The generation increments on every source switch, so any value from a
// later generation numerically dominates every value from an earlier
// one — ordinary uint64 comparison keeps working across a switch with
// no algorithm changes. Generation parity encodes the mode: even
// generations read the hardware counter, odd generations the shared
// logical counter, so the hot path needs no separate mode word.
const (
	// GenBits is the width of the generation field.
	GenBits = 8
	// GenShift is the payload width / the generation's bit offset.
	GenShift = 64 - GenBits
	// MaxGen is the largest encodable generation. It is odd, so a source
	// that somehow exhausts all generations saturates in logical mode —
	// the always-correct fallback.
	MaxGen = 1<<GenBits - 1
	// PayloadMask extracts the payload (reading) bits.
	PayloadMask = 1<<GenShift - 1
)

// GenOf extracts the generation field from a timestamp. For timestamps
// from non-generational sources this is 0 until the counter exceeds
// 2^56 (≈ 267 days of 3GHz TSC ticks), which the process lifetimes here
// never reach.
func GenOf(ts TS) uint64 { return ts >> GenShift }

// PayloadOf extracts the reading bits from a timestamp.
func PayloadOf(ts TS) TS { return ts & PayloadMask }

// SnapshotValid reports whether a range query that collected under the
// given snapshot bound may return its result: true unless src is an
// AdaptiveSource, the one source whose timestamps carry a generation, and
// it has switched generations since bound was taken. On mismatch the
// caller must discard what it collected, take a fresh bound and re-run —
// the pre-switch bound orders correctly against pre-switch labels only, so
// a result assembled across the switch could tear the snapshot. A counted
// AdaptiveSource counts the retry (see Count).
func SnapshotValid(src Source, bound TS) bool {
	a, ok := src.(*AdaptiveSource)
	if !ok || a.Generation() == GenOf(bound) {
		return true
	}
	if a.st != nil {
		a.st.SnapshotRetries.Inc()
	}
	return false
}

// DefaultFailbackAfter is the failback hysteresis: the number of
// consecutive fault-free Snapshot calls in logical mode before an
// AdaptiveSource retries the hardware counter.
const DefaultFailbackAfter = 4096

// AdaptiveSource starts on the hardware counter and fails over to a
// shared logical counter when Health reports the hardware degraded —
// the control loop that makes hardware timestamps safe on machines
// where the invariant-TSC assumption can break at runtime. After a
// fault-free stretch it fails back.
//
// Every timestamp carries the source generation in its high bits (see
// GenBits); on a switch the generation increments, so post-switch
// timestamps numerically dominate all pre-switch ones and monotonicity
// holds across the switch by construction. The logical counter is
// additionally seeded at or above the last hardware payload, so the
// payload bits are monotonic too. In-flight range queries detect a
// switch via SnapshotValid and retry against a fresh bound.
//
// Hot-path cost over the plain hardware source: one atomic load of the
// generation and one of the degraded flag per timestamp.
type AdaptiveSource struct {
	health *tsc.Health
	read   func() uint64 // fenced RDTSCP in even generations
	baseHW uint64        // hardware reading at construction; payload = read() - baseHW + 1
	counts

	gen     atomic.Uint64
	logical PaddedUint64 // payload counter for odd (logical) generations

	failbackAfter int           // DefaultFailbackAfter; a test may shorten it, or disable failback (< 0)
	lastSeq       atomic.Uint64 // Health.FaultSeq at last observation
	quiet         atomic.Uint64 // consecutive clean logical-mode snapshots

	mu sync.Mutex // serializes switches
}

// NewAdaptive builds an adaptive source over health, which supplies the
// degraded signal and receives switch telemetry. With a nil health the
// source never observes faults and stays on hardware (still
// generation-encoded, so instrumentation works).
func NewAdaptive(health *tsc.Health) *AdaptiveSource {
	s := &AdaptiveSource{
		health:        health,
		read:          tsc.ReadFenced,
		baseHW:        tsc.ReadFenced(),
		failbackAfter: DefaultFailbackAfter,
	}
	s.logical.Store(0)
	return s
}

// hwPayload returns the current hardware reading as a payload: offset
// from the construction-time base so values stay far from the payload
// width, floored at 1 (0 is "before all snapshots") and capped below
// PayloadMask so no generation can compose to the Pending sentinel.
func (s *AdaptiveSource) hwPayload() uint64 {
	r := s.read()
	var p uint64
	if r > s.baseHW {
		p = r - s.baseHW + 1
	} else {
		p = 1
	}
	if p >= PayloadMask {
		p = PayloadMask - 1
	}
	return p
}

// Generation returns the current source generation (even = hardware,
// odd = logical).
func (s *AdaptiveSource) Generation() uint64 { return s.gen.Load() }

// Degraded reports whether the source is currently in logical
// (failed-over) mode.
func (s *AdaptiveSource) Degraded() bool { return s.gen.Load()&1 == 1 }

// Advance obtains a new timestamp (see Source).
func (s *AdaptiveSource) Advance() TS {
	s.countAdvance()
	for {
		g := s.gen.Load()
		if g&1 == 1 {
			return g<<GenShift | s.logical.Add(1)&PayloadMask
		}
		if s.health.Degraded() && s.failover(g) {
			continue
		}
		return g<<GenShift | s.hwPayload()
	}
}

// Peek reads the current timestamp without advancing it (see Source).
func (s *AdaptiveSource) Peek() TS {
	s.countPeek()
	for {
		g := s.gen.Load()
		if g&1 == 1 {
			return g<<GenShift | s.logical.Load()&PayloadMask
		}
		if s.health.Degraded() && s.failover(g) {
			continue
		}
		return g<<GenShift | s.hwPayload()
	}
}

// Snapshot returns a closed snapshot bound (see Source). In logical
// mode it is the logical pre-increment (strict bound, like
// LogicalSource); in hardware mode a fenced read (ties possible, like
// hwSource). Logical-mode snapshots also drive failback hysteresis:
// after failbackAfter consecutive snapshots with no new Health faults,
// the source retries the hardware counter.
func (s *AdaptiveSource) Snapshot() TS {
	s.countSnapshot()
	for {
		g := s.gen.Load()
		if g&1 == 1 {
			ts := g<<GenShift | (s.logical.Add(1)-1)&PayloadMask
			s.maybeFailback(g)
			return ts
		}
		if s.health.Degraded() && s.failover(g) {
			continue
		}
		return g<<GenShift | s.hwPayload()
	}
}

// Kind reports Adaptive.
func (s *AdaptiveSource) Kind() Kind { return Adaptive }

// failover switches generation g (even, hardware) to g+1 (odd,
// logical). Returns true if the caller should re-read the generation
// (the switch happened, here or on another thread); false when the
// generation space is exhausted and the source must stay put.
func (s *AdaptiveSource) failover(g uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen.Load() != g {
		return true // raced: another thread already switched
	}
	if g+1 > MaxGen {
		return false
	}
	start := time.Now()
	// Seed the logical counter at or above the last hardware payload so
	// payload bits never move backward across the switch; the next
	// Advance returns seed+1, strictly above every hardware reading
	// taken before the switch.
	hw := s.hwPayload()
	for {
		cur := s.logical.Load()
		if hw <= cur || s.logical.CompareAndSwap(cur, hw) {
			break
		}
	}
	s.lastSeq.Store(s.health.FaultSeq())
	s.quiet.Store(0)
	s.gen.Store(g + 1)
	s.health.NoteSourceSwitch(false, time.Since(start))
	return true
}

// maybeFailback runs the failback hysteresis from a logical-mode
// snapshot: count consecutive snapshots during which Health observed no
// new fault, and after failbackAfter of them switch back to hardware.
// The counters are racy by design — hysteresis is a heuristic, and any
// thread observing a fault resets the run.
func (s *AdaptiveSource) maybeFailback(g uint64) {
	if s.failbackAfter < 0 || s.health == nil {
		return
	}
	seq := s.health.FaultSeq()
	if seq != s.lastSeq.Load() {
		s.lastSeq.Store(seq)
		s.quiet.Store(0)
		return
	}
	if s.quiet.Add(1) < uint64(s.failbackAfter) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen.Load() != g || g+1 > MaxGen-1 {
		return // raced, or too few generations left for another failover
	}
	if s.health.FaultSeq() != seq {
		return // a fault landed while we acquired the lock
	}
	start := time.Now()
	s.gen.Store(g + 1)
	s.quiet.Store(0)
	// Clear the flag so hardware-mode hot paths stop failing over; if a
	// fault raced with the clear, the sequence number exposes it and the
	// flag is re-raised (atomics are sequentially consistent, so a fault
	// ordered before our re-check is visible to it).
	s.health.ClearDegraded()
	if s.health.FaultSeq() != seq {
		s.health.RaiseDegraded()
	}
	s.health.NoteSourceSwitch(true, time.Since(start))
}
