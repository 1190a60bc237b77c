package core

import (
	"sync/atomic"

	"tscds/internal/obs"
	"tscds/internal/tsc"
)

// counts is the SourceStats a source counts its own calls in, fixed when
// NewSource builds it. A nil st leaves the source uncounted: each call
// then pays one pointer test.
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

// LogicalSource is the baseline: a single shared counter on its own cache
// line. Advance is a fetch-and-add — the single point of contention the
// paper identifies — and Peek is an atomic load.
type LogicalSource struct {
	c PaddedUint64
	counts
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

// actualFor maps a requested hardware kind to the kind the tsc
// accessors really deliver on this host: ReadFenced needs a trusted TSC
// (tsc.Supported: RDTSCP and invariant), and without one serves the
// monotonic clock.
func actualFor(k Kind) Kind {
	if k == TSC && !tsc.Supported() {
		return Monotonic
	}
	return k
}

// Actual reports the kind actually serving s's reads. For TSC on a host
// whose TSC is not trusted (tsc.Supported) this differs from s.Kind() — the silent-fallback case
// that used to mislabel monotonic numbers as RDTSCP in benchmark output.
// An AdaptiveSource reports Logical while failed over and its fenced
// RDTSCP read otherwise. Other sources are taken at their word.
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

// NewSource builds a timestamp source of kind k, counting its calls in st
// (nil: uncounted). On a logical source the Advance count is a direct
// proxy for fetch-and-add contention on the shared timestamp line, the
// effect the paper's figures measure; on hardware sources the counts
// describe the workload's timestamp appetite. Lock-free EBR-RQ's DCSS
// reads a logical counter at its address and is not counted: it is the
// algorithm's validation read, not a timestamp acquisition. An Adaptive
// source fails over on, and reports its switches to, health; with a nil
// health it never observes a fault and stays on hardware. The hardware
// kinds use the monotonic fallback when the host lacks the needed
// instructions (the tsc package handles that), disclosed via Actual,
// never silent. An unknown kind panics.
func NewSource(k Kind, health *tsc.Health, st *obs.SourceStats) Source {
	c := counts{st}
	switch k {
	case Logical:
		s := &LogicalSource{counts: c}
		s.c.Store(1) // 0 is "before all snapshots" to the data structures
		return s
	case TSC:
		return &hwSource{kind: k, read: tsc.ReadFenced, counts: c}
	case Monotonic:
		return &hwSource{kind: k, read: tsc.Monotonic, counts: c}
	case Adaptive:
		return &AdaptiveSource{
			health:        health,
			read:          tsc.ReadFenced,
			baseHW:        tsc.ReadFenced(),
			counts:        c,
			failbackAfter: DefaultFailbackAfter,
		}
	}
	panic("core: unknown source kind")
}

// New returns an uncounted Source of kind k; an Adaptive one has no
// health monitor.
func New(k Kind) Source { return NewSource(k, nil, nil) }
