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
//   - The recorder samples: Sample opens an operation on a thread and
//     decides, from a countdown the thread owns, whether to record it —
//     one operation in SamplePeriod on average. An unsampled operation
//     pays the countdown and nothing else: Now returns 0 for it and
//     Span, Count and OpEnd return at once.
//   - Per-thread methods (OpEnd/Span/Count) record the events of a
//     sampled operation on the calling thread's own ring, indexed by its
//     core.Thread ID and allocated when that thread begins its first
//     sampled operation. Span and Count hold their events in the ring's
//     header; OpEnd, called after the operation's end was read, writes
//     them out, so recording adds nothing to the durations it records.
//     Rings are single-writer, so writing an event is a handful of
//     uncontended atomic stores — no locks, no allocation, no shared
//     cache lines.
//   - Shared methods (SharedSpan/SharedCount) aggregate into one common
//     stats block, every time, for work no operation owns (a snapshot
//     flush, an epoch advance). They are multi-writer safe atomics.
//
// Snapshot scales what the rings aggregated by the sampling period, so
// its op and phase counts and sums estimate every operation's; the
// shared block is exact.
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
	// PhaseTraverse is the structure's own work on an operation (span): a
	// point operation's visit, from the operation's start to the
	// structure's return (label, alloc and lock-wait spans nest in it), or
	// a range query's collection walk.
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
	// appending the record to the shard's WAL buffer and committing it,
	// after the update was applied (its traverse)
	// — the updater writes the batch holding its record itself unless
	// another updater's flush is in progress, in which case it waits
	// for the next one (span; there is no committer goroutine to hand
	// off to). In sync mode this is dominated by the shared fsync; in
	// batched mode by the write.
	PhaseWALAppend
	// PhaseSnapshotFlush is one whole snapshot flush (Checkpoint or
	// CheckpointAt): collecting the map at a single timestamp (writers
	// running) and atomically writing the image (span; recorded on the
	// shared stats block, since a flush runs on the Checkpoint caller's
	// goroutine, and the durability layer has no thread of its own).
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

// SamplePeriod is P: a thread's recorder samples one operation in P on
// average, and Snapshot multiplies what the sampled ones aggregated by P.
// The ledger chose it: a sampled operation costs a few hundred
// nanoseconds more than an unsampled one, so at 64 the recorder adds
// about 5 ns to the average operation, within the noise of the metrics
// rung (EXPERIMENTS.md, "A sampled flight recorder"), while a benchmark
// trial still samples thousands of operations.
const SamplePeriod = 64

// RecordEveryOp makes r sample every operation (a period of 1), so that
// its Snapshot counts are exact. It is a test hook for tests that assert
// exact counts, to call before r records.
func RecordEveryOp(r *Recorder) { r.period = 1 }

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

// add aggregates v from any goroutine (the shared block).
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

// own aggregates v from the ring's owner, its only writer: plain
// read-modify-write, atomic only for Snapshot's loads.
func (s *phaseStat) own(v uint64) {
	s.count.Store(s.count.Load() + 1)
	s.sum.Store(s.sum.Load() + v)
	if v > s.max.Load() {
		s.max.Store(v)
	}
}

// opStat aggregates one op class on one ring.
type opStat struct {
	count atomic.Uint64
	sum   atomic.Uint64 // ns
}

// pending is an event of the sampled operation in progress, held until
// the operation ends.
type pending struct {
	at, arg uint64
	meta    uint32 // kind<<16 | op<<8 | phase
}

// ring is one thread's recording state. Everything but the atomics is
// the owner's alone; the pos cursor is written only by the owner, and
// readers load it to locate the newest events. The fields every
// operation touches (the countdown) and those a sampled one touches until
// it ends (its start, its held events) share the first lines, so a
// sampled operation's recording stays in cache lines its thread just
// used.
type ring struct {
	_     [cacheLine]byte
	left  uint64 // operations until the owner's next sampled one, counting it
	rng   uint64 // xorshift state drawing the gaps between sampled operations
	on    bool   // the owner's current operation is sampled
	n     uint8  // events held in held
	start uint64 // the current operation's start, from Begin
	last  uint64 // the owner's latest clock reading, which dates a count
	held  [4]pending
	pos   atomic.Uint64
	// The aggregates and the slots are written only when a sampled
	// operation ends (or holds more events than held has room for).
	phases [NumPhases]phaseStat
	ops    [obs.NumOpClasses]opStat
	slots  []slot
	_      [cacheLine - 8]byte
}

// Recorder is the flight recorder: one ring per thread ID that has
// sampled an operation, plus a shared aggregate block. A nil *Recorder is inert;
// every method is safe (and free of allocation) on it.
type Recorder struct {
	clk    *tsc.Clock
	start  uint64 // clk reading at construction, the origin of event times
	mask   uint64
	period uint64                 // one operation in period is sampled, on average
	rings  []atomic.Pointer[ring] // rings[tid], stored by tid's first Begin
	shared [NumPhases]phaseStat
}

// NewRecorder builds a recorder for thread IDs in [0, maxThreads) with
// ringSize slots per thread (rounded up to a power of two;
// DefaultRingSize when non-positive). It allocates no ring: each thread's
// is allocated when that thread begins its first sampled operation.
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
	return &Recorder{clk: clk, start: clk.Now(), mask: uint64(n - 1), period: SamplePeriod,
		rings: make([]atomic.Pointer[ring], maxThreads)}
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

// Threads returns the number of thread IDs the recorder serves (0 for
// nil).
func (r *Recorder) Threads() int {
	if r == nil {
		return 0
	}
	return len(r.rings)
}

// Sample opens an operation on thread tid, which must be the calling
// goroutine's, and decides whether the recorder samples it: true means
// it does, and the caller must then call Begin. Until tid's next Sample,
// Now, Span, Count and OpEnd record on tid only if this operation is
// sampled. The gaps between a thread's sampled operations are drawn at
// random with mean SamplePeriod, so no periodic pattern of operations
// aliases with them; a thread's first operation is sampled. Sample is the
// countdown alone, small enough to inline on every traced path.
func (r *Recorder) Sample(tid int) bool {
	if r == nil || uint(tid) >= uint(len(r.rings)) {
		return false
	}
	rg := r.rings[tid].Load()
	if rg == nil || rg.left <= 1 {
		return true
	}
	rg.left--
	rg.on = false
	return false
}

// Begin starts the operation Sample chose on tid and returns its start,
// a telemetry clock reading. The first one on tid allocates tid's ring.
//
//go:noinline
func (r *Recorder) Begin(tid int) uint64 {
	if r == nil || uint(tid) >= uint(len(r.rings)) {
		return 0
	}
	rg := r.rings[tid].Load()
	if rg == nil {
		rg = &ring{slots: make([]slot, r.mask+1), rng: uint64(tid)*0x9e3779b97f4a7c15 | 1}
		r.rings[tid].Store(rg)
	}
	r.flush(rg) // what an operation that never ended held
	rg.rng ^= rg.rng << 13
	rg.rng ^= rg.rng >> 7
	rg.rng ^= rg.rng << 17
	rg.left = 1 + rg.rng%(2*r.period-1)
	rg.on = true
	rg.start = r.clk.Now()
	rg.last = rg.start
	return rg.start
}

// ring returns tid's ring when tid's current operation is sampled, else
// nil.
func (r *Recorder) ring(tid int) *ring {
	if uint(tid) >= uint(len(r.rings)) {
		return nil
	}
	if rg := r.rings[tid].Load(); rg != nil && rg.on {
		return rg
	}
	return nil
}

// Now reads the process's telemetry clock (tsc.TelemetryClock) when
// thread tid's current operation is sampled, and returns 0 otherwise (and
// for nil). Use it to obtain span start marks for Span; a 0 mark makes
// Span return at once.
func (r *Recorder) Now(tid int) uint64 {
	if r == nil {
		return 0
	}
	return r.now(tid)
}

// now is Now's sample test and clock read, kept out of line so that Now,
// a nil test on every uninstrumented path, stays within the inliner's
// budget.
//
//go:noinline
func (r *Recorder) now(tid int) uint64 {
	rg := r.ring(tid)
	if rg == nil {
		return 0
	}
	rg.last = r.clk.Now()
	return rg.last
}

// Start returns the start of thread tid's current operation, Begin's
// reading, when the operation is sampled, and 0 otherwise (and for nil):
// the mark of a span that runs from the operation's beginning, such as a
// point operation's traverse, at no clock read.
func (r *Recorder) Start(tid int) uint64 {
	if r == nil {
		return 0
	}
	if rg := r.ring(tid); rg != nil {
		return rg.start
	}
	return 0
}

// OpEnd records the completion, at endNS (a telemetry clock reading), of
// a facade operation that took durNS, and writes the operation's held
// events to the ring and its aggregates: recording happens after the
// operation's end was read, so it adds nothing to the durations recorded.
// The caller must be the goroutine owning tid; an unsampled operation
// records nothing.
func (r *Recorder) OpEnd(tid int, op obs.OpClass, endNS, durNS uint64) {
	if r == nil {
		return
	}
	rg := r.ring(tid)
	if rg == nil || op >= obs.NumOpClasses {
		return
	}
	r.flush(rg)
	s := &rg.ops[op]
	s.count.Store(s.count.Load() + 1)
	s.sum.Store(s.sum.Load() + durNS)
	r.record(rg, uint32(KindOpEnd)<<16|uint32(op)<<8, endNS, durNS)
}

// Span records a completed phase span that began at startNS (a mark from
// Now or Start) on thread tid; a 0 mark, an unsampled operation's,
// records nothing. The event is held until the operation ends.
func (r *Recorder) Span(tid int, p Phase, startNS uint64) {
	if r == nil || startNS == 0 {
		return
	}
	r.span(tid, p, startNS)
}

// span is Span past its inlined tests.
func (r *Recorder) span(tid int, p Phase, startNS uint64) {
	rg := r.ring(tid)
	if rg == nil || p >= NumPhases {
		return
	}
	rg.last = r.clk.Now()
	r.hold(rg, uint32(KindSpan)<<16|uint32(p), rg.last, tsc.Elapsed(startNS, rg.last))
}

// Count records n phase units (hops, retries, helps) on thread tid if its
// current operation is sampled, dated by the thread's latest clock
// reading. Zero counts are dropped. The event is held until the
// operation ends.
func (r *Recorder) Count(tid int, p Phase, n uint64) {
	if r == nil || n == 0 {
		return
	}
	r.count(tid, p, n)
}

// count is Count past its inlined tests.
func (r *Recorder) count(tid int, p Phase, n uint64) {
	rg := r.ring(tid)
	if rg == nil || p >= NumPhases {
		return
	}
	r.hold(rg, uint32(KindCount)<<16|uint32(p), rg.last, n)
}

// hold keeps one event of rg's current operation until it ends, writing
// out the held ones first when there is no room.
func (r *Recorder) hold(rg *ring, meta uint32, at, arg uint64) {
	if int(rg.n) == len(rg.held) {
		r.flush(rg)
	}
	rg.held[rg.n] = pending{at: at, arg: arg, meta: meta}
	rg.n++
}

// flush writes rg's held events to its phase aggregates and its ring.
func (r *Recorder) flush(rg *ring) {
	for _, e := range rg.held[:rg.n] {
		rg.phases[Phase(e.meta&0xff)].own(e.arg)
		r.record(rg, e.meta, e.at, e.arg)
	}
	rg.n = 0
}

// SharedSpan aggregates a phase span without a thread identity (no ring
// event, no sampling). Safe from any goroutine.
func (r *Recorder) SharedSpan(p Phase, startNS uint64) {
	if r == nil || p >= NumPhases {
		return
	}
	r.shared[p].add(tsc.Elapsed(startNS, r.clk.Now()))
}

// SharedNow reads the telemetry clock for a SharedSpan mark (0 for nil).
func (r *Recorder) SharedNow() uint64 {
	if r == nil {
		return 0
	}
	return r.clk.Now()
}

// SharedCount aggregates n phase units without a thread identity (no
// ring event, no sampling). Safe from any goroutine. Zero counts are
// dropped.
func (r *Recorder) SharedCount(p Phase, n uint64) {
	if r == nil || n == 0 || p >= NumPhases {
		return
	}
	r.shared[p].add(n)
}

// record seqlock-publishes one event, dated at, into rg. Only rg's
// owner may call it (the rings are single-writer).
func (r *Recorder) record(rg *ring, meta uint32, at, arg uint64) {
	i := rg.pos.Load()
	sl := &rg.slots[i&r.mask]
	sl.seq.Store(0) // invalidate for in-flight readers
	sl.at.Store(at)
	sl.meta.Store(uint64(meta))
	sl.arg.Store(arg)
	sl.seq.Store(i + 1)
	rg.pos.Store(i + 1)
}
