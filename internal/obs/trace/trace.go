// Package trace is the library's flight recorder: a per-thread,
// lock-free, fixed-size ring buffer of typed events plus per-phase
// aggregate statistics, recording *where time goes inside an operation*
// — the quantity §IV of the paper argues decides whether hardware
// timestamps help a given (structure, technique) cell.
//
// The design follows the same opt-in discipline as package obs: a nil
// *Recorder is a valid, fully inert recorder (every method nil-checks
// its receiver), so an uninstrumented hot path pays one predictable
// branch and allocates nothing. When recording is on:
//
//   - Per-thread methods (OpEnd/Span/Count) write to the calling
//     thread's own ring, indexed by its core.Thread ID. Rings are
//     single-writer, so recording an event is a handful of uncontended
//     atomic stores — no locks, no allocation, no shared cache lines.
//   - Shared methods (SharedSpan/SharedCount) aggregate into one common
//     stats block for instrumentation points that lack a thread identity
//     (e.g. the EBR-RQ provider's lock acquisitions, which may run on
//     behalf of helpers). They are multi-writer safe atomics.
//
// Ring slots are seqlock-published: the writer invalidates a slot's
// sequence, stores the fields, then publishes the new sequence. A
// concurrent snapshot that observes a torn slot (sequence changed or
// zero) simply drops it, so readers never block writers and the whole
// structure is race-detector clean.
//
// It imports only obs (for the op classes) and tsc (for its clock), which
// import nothing of the library, so every layer can report through it
// without cycles.
package trace

import (
	"math/bits"
	"sync/atomic"

	"tscds/internal/obs"
	"tscds/internal/tsc"
)

// Phase labels one slice of an operation's execution. Span phases
// accumulate nanoseconds; count phases accumulate event units (chain
// hops, retries, helps). Unit reports which.
type Phase uint8

const (
	// PhaseTraverse is the structural walk of an operation (span).
	PhaseTraverse Phase = iota
	// PhaseTimestamp is the snapshot-bound acquisition of a range query —
	// the fetch-and-add a logical source pays, the fenced read TSC pays
	// (span).
	PhaseTimestamp
	// PhaseLabel is timestamp labeling by an update: a bundle
	// Prepare..Finalize window or an EBR-RQ (read, label) pair (span).
	PhaseLabel
	// PhaseLockWait is time spent acquiring the EBR-RQ readers-writer
	// lock — the paper's central negative result is that this wait, not
	// the counter, bounds EBR-RQ (span).
	PhaseLockWait
	// PhaseLimboScan is the EBR-RQ limbo-list sweep a range query
	// performs after the tree walk (span).
	PhaseLimboScan
	// PhaseRetry counts restarted update attempts (validation failures,
	// lost CASes, DCSS conflicts).
	PhaseRetry
	// PhaseHelp counts operations completed on behalf of other threads
	// (vCAS/EFRB helping).
	PhaseHelp
	// PhaseVersionWalk counts vCAS version-chain hops taken past the head
	// to reach the snapshot-visible version.
	PhaseVersionWalk
	// PhaseBundleDeref counts bundle history entries walked past the head
	// to find the snapshot-visible link target.
	PhaseBundleDeref
	// PhasePendingWait counts spins on pending (unlabeled) bundle entries.
	PhasePendingWait
	// PhasePinStall counts epoch Pin republications (global epoch moved
	// during publication).
	PhasePinStall
	// PhaseAdvanceStall counts failed epoch-advance attempts (a pinned
	// thread lagging, or a lost CAS).
	PhaseAdvanceStall
	// PhaseShardFanout is a sharded range query's cross-shard snapshot
	// coordination: reserving an announcement slot on every overlapping
	// shard, acquiring any per-shard provider locks, and reading the one
	// shared timestamp (span).
	PhaseShardFanout
	// PhaseSourceSwitch is the time a range query wasted on a collection
	// attempt that an adaptive-source generation switch invalidated: the
	// discarded attempt's duration, from taking the stale bound to the
	// failed revalidation (span).
	PhaseSourceSwitch
	// PhaseAlloc is node/version/entry acquisition on the update path —
	// a pooled Get (free-list pop, shared pool, or heap fallback) or the
	// plain heap allocation in GC mode (span). Comparing its share
	// across Config.Alloc modes is how the alloc figure attributes
	// update-path time to the allocator.
	PhaseAlloc
	// PhaseWALAppend is the durability tax on an acknowledged update:
	// appending the record to the shard's WAL buffer and committing it
	// — the updater writes the batch holding its record itself unless
	// another updater's flush is in progress, in which case it waits
	// for the next one (span; there is no committer goroutine to hand
	// off to). In sync mode this is dominated by the shared fsync; in
	// batched mode by the write.
	PhaseWALAppend
	// PhaseSnapshotFlush is one whole snapshot flush: collecting the
	// map at a single timestamp via RangeQueryAt (writers running),
	// sorting, and atomically writing the image (span; recorded on the
	// shared stats block, since flushes run on the durability layer's
	// own thread or the Checkpoint caller's).
	PhaseSnapshotFlush

	// NumPhases is the number of phases.
	NumPhases
)

// String names the phase as it appears in snapshots.
func (p Phase) String() string {
	switch p {
	case PhaseTraverse:
		return "traverse"
	case PhaseTimestamp:
		return "timestamp-read"
	case PhaseLabel:
		return "label"
	case PhaseLockWait:
		return "lock-wait"
	case PhaseLimboScan:
		return "limbo-scan"
	case PhaseRetry:
		return "retry"
	case PhaseHelp:
		return "help"
	case PhaseVersionWalk:
		return "version-walk"
	case PhaseBundleDeref:
		return "bundle-deref"
	case PhasePendingWait:
		return "pending-wait"
	case PhasePinStall:
		return "pin-stall"
	case PhaseAdvanceStall:
		return "advance-stall"
	case PhaseShardFanout:
		return "shard-fanout"
	case PhaseSourceSwitch:
		return "source-switch"
	case PhaseAlloc:
		return "alloc"
	case PhaseWALAppend:
		return "wal-append"
	case PhaseSnapshotFlush:
		return "snapshot-flush"
	}
	return "unknown"
}

// IsSpan reports whether the phase accumulates nanoseconds (true) or
// event units (false).
func (p Phase) IsSpan() bool {
	switch p {
	case PhaseTraverse, PhaseTimestamp, PhaseLabel, PhaseLockWait, PhaseLimboScan,
		PhaseShardFanout, PhaseSourceSwitch, PhaseAlloc, PhaseWALAppend,
		PhaseSnapshotFlush:
		return true
	}
	return false
}

// Unit names the phase's accumulation unit ("ns" or "events").
func (p Phase) Unit() string {
	if p.IsSpan() {
		return "ns"
	}
	return "events"
}

// Kind tags a ring event.
type Kind uint8

const (
	// KindOpEnd marks the completion of a facade operation; the event
	// value is its duration.
	KindOpEnd Kind = iota
	// KindSpan records one completed phase span; value is nanoseconds.
	KindSpan
	// KindCount records a phase count; value is the unit count.
	KindCount

	numKinds
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case KindOpEnd:
		return "op-end"
	case KindSpan:
		return "span"
	case KindCount:
		return "count"
	}
	return "unknown"
}

// DefaultRingSize is the per-thread event capacity used when the caller
// passes a non-positive size.
const DefaultRingSize = 256

// cacheLine mirrors obs's padding policy.
const cacheLine = 64

// slot is one seqlock-published ring entry. seq == 0 means "never
// written or mid-write"; otherwise seq is the 1-based global event
// index, so a reader can detect both tearing and overwrites.
type slot struct {
	seq  atomic.Uint64
	at   atomic.Uint64 // clock reading at the event
	meta atomic.Uint64 // kind<<16 | op<<8 | phase
	arg  atomic.Uint64 // duration ns or unit count
}

// phaseStat aggregates one phase on one ring (or the shared block).
type phaseStat struct {
	count atomic.Uint64
	sum   atomic.Uint64
	max   atomic.Uint64
}

func (s *phaseStat) add(v uint64) {
	s.count.Add(1)
	s.sum.Add(v)
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// opStat aggregates one op class on one ring.
type opStat struct {
	count atomic.Uint64
	sum   atomic.Uint64 // ns
}

// ring is one thread's recording state. The pos cursor is written only
// by the owning thread; readers load it to locate the newest events.
type ring struct {
	_      [cacheLine]byte
	pos    atomic.Uint64
	phases [NumPhases]phaseStat
	ops    [obs.NumOpClasses]opStat
	slots  []slot
	_      [cacheLine - 8]byte
}

// Recorder is the flight recorder: one ring per thread ID plus a shared
// aggregate block. A nil *Recorder is inert; every method is safe (and
// free of allocation) on it.
type Recorder struct {
	clk    *tsc.Clock
	start  uint64 // clk reading at construction, the origin of event times
	mask   uint64
	rings  []ring
	shared [NumPhases]phaseStat
}

// NewRecorder builds a recorder for thread IDs in [0, maxThreads) with
// ringSize slots per thread (rounded up to a power of two;
// DefaultRingSize when non-positive).
func NewRecorder(maxThreads, ringSize int) *Recorder {
	if maxThreads <= 0 {
		maxThreads = 1
	}
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	n := 1
	if ringSize > 1 {
		n = 1 << bits.Len(uint(ringSize-1))
	}
	clk := tsc.TelemetryClock()
	r := &Recorder{clk: clk, start: clk.Now(), mask: uint64(n - 1), rings: make([]ring, maxThreads)}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, n)
	}
	return r
}

// Enabled reports whether the recorder records events (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// RingSize returns the per-thread event capacity (0 for nil).
func (r *Recorder) RingSize() int {
	if r == nil {
		return 0
	}
	return int(r.mask) + 1
}

// Threads returns the number of per-thread rings (0 for nil).
func (r *Recorder) Threads() int {
	if r == nil {
		return 0
	}
	return len(r.rings)
}

// Now reads the process's telemetry clock (tsc.TelemetryClock), or
// returns 0 for nil. Use it to obtain span start marks for Span/SharedSpan.
func (r *Recorder) Now() uint64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// now is Now's clock read, kept out of line so that Now, a nil test on
// every uninstrumented path, stays within the inliner's budget.
//
//go:noinline
func (r *Recorder) now() uint64 { return r.clk.Now() }

// OpEnd records the completion, at endNS (a telemetry clock reading), of
// a facade operation that took durNS. The caller must be the goroutine
// owning tid.
func (r *Recorder) OpEnd(tid int, op obs.OpClass, endNS, durNS uint64) {
	if r == nil {
		return
	}
	if tid >= 0 && tid < len(r.rings) && op < obs.NumOpClasses {
		s := &r.rings[tid].ops[op]
		s.count.Add(1)
		s.sum.Add(durNS)
	}
	r.record(tid, KindOpEnd, op, 0, endNS, durNS)
}

// Span records a completed phase span that began at startNS (a mark from
// Now) on thread tid.
func (r *Recorder) Span(tid int, p Phase, startNS uint64) {
	if r == nil {
		return
	}
	now := r.clk.Now()
	dur := tsc.Elapsed(startNS, now)
	if tid >= 0 && tid < len(r.rings) && p < NumPhases {
		r.rings[tid].phases[p].add(dur)
	}
	r.record(tid, KindSpan, 0, p, now, dur)
}

// Count records n phase units (hops, retries, helps) on thread tid.
// Zero counts are dropped.
func (r *Recorder) Count(tid int, p Phase, n uint64) {
	if r == nil || n == 0 {
		return
	}
	if tid >= 0 && tid < len(r.rings) && p < NumPhases {
		r.rings[tid].phases[p].add(n)
	}
	r.record(tid, KindCount, 0, p, r.clk.Now(), n)
}

// SharedSpan aggregates a phase span without a thread identity (no ring
// event). Safe from any goroutine.
func (r *Recorder) SharedSpan(p Phase, startNS uint64) {
	if r == nil || p >= NumPhases {
		return
	}
	r.shared[p].add(tsc.Elapsed(startNS, r.clk.Now()))
}

// SharedCount aggregates n phase units without a thread identity (no
// ring event). Safe from any goroutine. Zero counts are dropped.
func (r *Recorder) SharedCount(p Phase, n uint64) {
	if r == nil || n == 0 || p >= NumPhases {
		return
	}
	r.shared[p].add(n)
}

// record seqlock-publishes one event, read off the clock at at, into
// tid's ring. Only the goroutine owning tid may call it (the rings are
// single-writer).
func (r *Recorder) record(tid int, k Kind, op obs.OpClass, p Phase, at, arg uint64) {
	if tid < 0 || tid >= len(r.rings) {
		return
	}
	rg := &r.rings[tid]
	i := rg.pos.Load()
	sl := &rg.slots[i&r.mask]
	sl.seq.Store(0) // invalidate for in-flight readers
	sl.at.Store(at)
	sl.meta.Store(uint64(k)<<16 | uint64(op)<<8 | uint64(p))
	sl.arg.Store(arg)
	sl.seq.Store(i + 1)
	rg.pos.Store(i + 1)
}
