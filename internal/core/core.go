// Package core implements the paper's primary contribution: a drop-in
// timestamp API that lets a range-query algorithm switch between a global
// logical timestamp and the CPU's synchronized hardware timestamp counter
// (TSC), plus the shared machinery every ported technique needs — padded
// atomics, and a registry of active range-query timestamps used to
// garbage-collect version chains, bundle entries and limbo lists.
//
// The API mirrors the paper's porting recipe exactly: every place an
// algorithm incremented the logical timestamp becomes Source.Advance, and
// every place it read the timestamp becomes Source.Peek. For hardware
// sources both calls are a fenced RDTSCP read; for the logical source
// Advance is an atomic fetch-and-add on a single shared cache line — the
// contention bottleneck the paper measures.
package core

import (
	"cmp"
	"math"
	"slices"
)

// TS is a timestamp. Logical sources produce small dense integers;
// hardware sources produce TSC cycle counts. Algorithms only ever compare
// timestamps and never assume density.
type TS = uint64

// Pending marks an object whose timestamp label has been reserved but not
// yet assigned (vCAS's "TBD", bundling's pending entry). It is the
// largest TS so an unlabeled object always appears "newer than any
// snapshot" until labeled.
const Pending TS = math.MaxUint64

// MaxTS is the largest assignable timestamp (one below Pending).
const MaxTS TS = Pending - 1

// KV is a key-value pair returned by range queries.
type KV struct {
	Key, Val uint64
}

// SortKVs sorts pairs by ascending key: an EBR-RQ collection once its
// limbo walk has added to it, and a sharded read that spans more key
// blocks than the map has parts.
func SortKVs(kvs []KV) {
	slices.SortFunc(kvs, func(a, b KV) int { return cmp.Compare(a.Key, b.Key) })
}

// Kind identifies a timestamp source implementation.
type Kind int

const (
	// Logical is a shared atomic counter: Advance = fetch-and-add,
	// Peek = load. The baseline in every figure.
	Logical Kind = iota
	// TSC is RDTSCP;LFENCE — the paper's recommended hardware source.
	TSC
	// TSCUnfenced is a bare RDTSCP (pseudo-serializing only); shown in
	// Figure 1 to bound fence overhead.
	TSCUnfenced
	// TSCCPUID is CPUID;RDTSC — fully serialized but ~200+ cycles.
	TSCCPUID
	// TSCRaw is a bare RDTSC with no ordering guarantees.
	TSCRaw
	// Monotonic is the portable monotonic-clock source, used where TSC
	// is unavailable (non-amd64, or non-invariant TSC).
	Monotonic
	// Adaptive starts on fenced RDTSCP and fails over to the shared
	// logical counter when tsc.Health reports the hardware degraded,
	// encoding a source generation in each timestamp's high bits (see
	// AdaptiveSource).
	Adaptive
)

// String returns the series label used in benchmark output, matching the
// paper's legend names.
func (k Kind) String() string {
	switch k {
	case Logical:
		return "Logical"
	case TSC:
		return "RDTSCP"
	case TSCUnfenced:
		return "RDTSCP-nofence"
	case TSCCPUID:
		return "RDTSC-CPUID"
	case TSCRaw:
		return "RDTSC-nofence"
	case Monotonic:
		return "Monotonic"
	case Adaptive:
		return "Adaptive"
	}
	return "Unknown"
}

// Hardware reports whether the kind reads a per-core hardware counter
// rather than a shared memory location.
func (k Kind) Hardware() bool { return k != Logical }

// Source produces timestamps. Implementations must guarantee that
// timestamps are monotonically (not necessarily strictly) increasing with
// respect to real-time order: if a call happens-after another call
// returns, it yields a value >= the earlier result.
type Source interface {
	// Advance obtains a new timestamp, advancing the global order. On a
	// logical source this is a fetch-and-add; on hardware sources it is
	// simply a read, since the counter advances on its own.
	Advance() TS
	// Peek reads the current timestamp without advancing it. On a
	// logical source this is an atomic load.
	Peek() TS
	// Snapshot returns a closed snapshot bound s: every label produced
	// by Peek or Advance that starts after Snapshot returns is >= s, and
	// on a logical source strictly greater. Range queries linearize at
	// Snapshot and include exactly the labels <= s. On a logical source
	// this is a fetch-and-add returning the pre-increment value; on
	// hardware sources it is a read (ties with in-flight labels are the
	// theoretical corner case of §III-A, addressed by AdvanceStrict
	// where an algorithm needs strictness).
	Snapshot() TS
	// Kind identifies the implementation.
	Kind() Kind
}

// advanceStrictSpinBudget bounds the AdvanceStrict spin. A healthy
// source moves within a handful of reads (one counter increment — a
// clock cycle for TSC); a million reads without progress means the
// counter is frozen, and spinning further would hang the caller on
// exactly the hardware fault the health monitor exists to catch.
const advanceStrictSpinBudget = 1 << 20

// AdvanceStrict returns a timestamp strictly greater than prev. This is
// the Jiffy-style tie-avoidance discussed in §III-A: TSC is monotonic
// but not strictly increasing, so algorithms that require unique
// versions wait out ties. On a healthy source the wait is bounded by
// one counter increment (a clock cycle for TSC); for a logical source
// Advance already guarantees strict increase so no spin occurs.
//
// Against a stalled source the spin is bounded: after the budget is
// exhausted the stall is counted on s (see Count), an AdaptiveSource
// reports it to its Health monitor, which fails the source over, and
// prev+1 is returned. The fabricated label is strictly above prev
// but ahead of the frozen counter, so it stays invisible to snapshots
// until the counter catches up — a bounded-staleness degradation,
// instead of the unbounded hang a frozen counter used to cause here.
func AdvanceStrict(s Source, prev TS) TS {
	for i := 0; i < advanceStrictSpinBudget; i++ {
		t := s.Advance()
		if t > prev {
			return t
		}
	}
	if c := countsOf(s); c != nil {
		c.countStall()
	}
	if a, ok := s.(*AdaptiveSource); ok {
		a.health.NoteStall()
	}
	t := prev + 1
	if t > MaxTS {
		t = MaxTS
	}
	return t
}
