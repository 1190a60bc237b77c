package core

import (
	"sync/atomic"

	"tscds/internal/obs"
	"tscds/internal/tsc"
)

// counts is the SourceStats a source counts its own calls in. A nil st
// (the default) leaves the source uncounted: each call then pays one
// pointer test. Count sets it.
type counts struct{ st *obs.SourceStats }

func (c *counts) countAdvance() {
	if c.st != nil {
		c.st.Advances.Inc()
	}
}

func (c *counts) countPeek() {
	if c.st != nil {
		c.st.Peeks.Inc()
	}
}

func (c *counts) countSnapshot() {
	if c.st != nil {
		c.st.Snapshots.Inc()
	}
}

// Count makes src count every Advance, Peek and Snapshot in st and, on an
// AdaptiveSource, every range query SnapshotValid sends back for a retry.
// On a logical source the Advance count is a direct proxy for fetch-and-add
// contention on the shared timestamp line, the effect the paper's figures
// measure; on hardware sources the counts describe the workload's
// timestamp appetite.
// Lock-free EBR-RQ's DCSS reads a logical counter at its address and is
// not counted: it is the algorithm's validation read, not a timestamp
// acquisition. Call Count before src serves traffic; src must come from
// New or NewAdaptive.
func Count(src Source, st *obs.SourceStats) {
	c := countsOf(src)
	if c == nil {
		panic("core: Count on a source New did not build")
	}
	c.st = st
}

func countsOf(src Source) *counts {
	switch s := src.(type) {
	case *LogicalSource:
		return &s.counts
	case *hwSource:
		return &s.counts
	case *AdaptiveSource:
		return &s.counts
	}
	return nil
}

// LogicalSource is the baseline: a single shared counter on its own cache
// line. Advance is a fetch-and-add — the single point of contention the
// paper identifies — and Peek is an atomic load.
type LogicalSource struct {
	c PaddedUint64
	counts
}

// NewLogical returns a logical source starting at 1 (0 is reserved as
// "before all snapshots" by the data structures).
func NewLogical() *LogicalSource {
	s := &LogicalSource{}
	s.c.Store(1)
	return s
}

// Advance increments the counter and returns the new value.
func (s *LogicalSource) Advance() TS {
	s.countAdvance()
	return s.c.Add(1)
}

// Addr exposes the counter's memory address. Lock-free EBR-RQ needs this
// for its DCSS (the swap only succeeds if the timestamp at this address
// is unchanged) — which is precisely why, per the paper §IV, that
// algorithm cannot be ported to hardware timestamps: a TSC value has no
// address to validate.
func (s *LogicalSource) Addr() *atomic.Uint64 { return s.c.Raw() }

// Peek loads the counter.
func (s *LogicalSource) Peek() TS {
	s.countPeek()
	return s.c.Load()
}

// Snapshot advances the counter and returns the pre-increment value, so
// every label taken after the snapshot is strictly newer than the bound.
func (s *LogicalSource) Snapshot() TS {
	s.countSnapshot()
	return s.c.Add(1) - 1
}

// Kind reports Logical.
func (s *LogicalSource) Kind() Kind { return Logical }

// hwSource reads a per-core counter; Advance and Peek are the same read.
type hwSource struct {
	kind Kind
	read func() uint64
	counts
}

func (s *hwSource) Advance() TS {
	s.countAdvance()
	return s.read()
}

func (s *hwSource) Peek() TS {
	s.countPeek()
	return s.read()
}

func (s *hwSource) Snapshot() TS {
	s.countSnapshot()
	return s.read()
}

func (s *hwSource) Kind() Kind { return s.kind }

// actualFor maps a requested hardware kind to the kind whose semantics
// the tsc accessors really deliver on this host. Mirrors the fallback
// chains in tsc's per-arch files.
func actualFor(k Kind) Kind {
	switch k {
	case TSC:
		// ReadFenced needs RDTSCP; without it the accessor serves the
		// monotonic clock.
		if !tsc.Supported() {
			return Monotonic
		}
	case TSCUnfenced:
		// ReadP degrades to bare RDTSC without RDTSCP, and to the
		// monotonic clock without any counter.
		if !tsc.HasCounter() {
			return Monotonic
		}
		if !tsc.Supported() {
			return TSCRaw
		}
	case TSCCPUID, TSCRaw:
		// Real whenever the architecture has a counter at all.
		if !tsc.HasCounter() {
			return Monotonic
		}
	}
	return k
}

// Actual reports the kind actually serving s's reads. For hardware
// kinds on hosts missing the needed instructions this differs from
// s.Kind() — the silent-fallback case that used to mislabel monotonic
// numbers as RDTSCP in benchmark output. An AdaptiveSource reports
// Logical while failed over and its fenced RDTSCP read otherwise. Other
// sources are taken at their word.
func Actual(s Source) Kind {
	switch s := s.(type) {
	case *hwSource:
		return actualFor(s.kind)
	case *AdaptiveSource:
		if s.Degraded() {
			return Logical
		}
		return actualFor(TSC)
	}
	return s.Kind()
}

// New returns a Source of the requested kind. Hardware kinds use the
// monotonic fallback when the host lacks the needed instructions (the
// tsc package handles that), so callers can always construct any kind —
// but the substitution is disclosed via Actual, never silent.
// New(Adaptive) builds an AdaptiveSource with no health monitor (it
// stays on hardware); use NewAdaptive to wire one.
func New(k Kind) Source {
	switch k {
	case Logical:
		return NewLogical()
	case TSC:
		return &hwSource{kind: k, read: tsc.ReadFenced}
	case TSCUnfenced:
		return &hwSource{kind: k, read: tsc.ReadP}
	case TSCCPUID:
		return &hwSource{kind: k, read: tsc.ReadCPUID}
	case TSCRaw:
		return &hwSource{kind: k, read: tsc.Read}
	case Monotonic:
		return &hwSource{kind: k, read: tsc.Monotonic}
	case Adaptive:
		return NewAdaptive(AdaptiveConfig{})
	}
	panic("core: unknown source kind")
}
