// Package ebrrq implements the timestamp machinery of EBR-RQ
// (Arbel-Raviv & Brown, "Harnessing epoch-based reclamation for efficient
// range queries", PPoPP 2018), the technique whose coarse-grained
// timestamp labeling the paper shows cannot profit from hardware
// timestamps (§IV, Figure 4).
//
// EBR-RQ tags every node with an insertion and a deletion timestamp, and
// requires that an update's (read timestamp, write label) pair executes
// atomically:
//
//   - The lock-based variant holds a global readers-writer lock in shared
//     mode around the pair, while a range query acquires it exclusively
//     to advance the timestamp and linearize. Porting to TSC replaces the
//     counter accesses with RDTSCP reads but must RETAIN the lock — so
//     the lock, not the counter, remains the bottleneck, which is the
//     paper's central negative result.
//
//   - The lock-free variant uses DCSS: the label write succeeds only if
//     the global timestamp still holds the value read. Because DCSS
//     validates the timestamp at an address, this variant is
//     fundamentally incompatible with TSC; NewLockFree returns
//     ErrRequiresAddress for hardware sources.
//
// A range query at bound s includes a node iff its insertion label is
// assigned and <= s, and its deletion label is unassigned or > s; the
// deleted-but-included nodes are found by scanning the EBR limbo lists
// (package epoch).
package ebrrq

import (
	"errors"
	"sync"
	"sync/atomic"

	"tscds/internal/core"
	"tscds/internal/dcss"
	"tscds/internal/obs/trace"
)

// ErrRequiresAddress is returned when the lock-free variant is asked to
// use a hardware timestamp: DCSS must validate the timestamp's value at
// its address, and a TSC read has no address. This pins the paper's
// finding that lock-free EBR-RQ "prevents the use of TSC altogether".
var ErrRequiresAddress = errors.New(
	"ebrrq: lock-free EBR-RQ requires an addressable (logical) timestamp; " +
		"hardware timestamps cannot be validated by DCSS")

// Variant selects the labeling implementation.
type Variant int

const (
	// LockBased protects (read, label) with a global RW lock.
	LockBased Variant = iota
	// LockFree makes (read, label) atomic via DCSS.
	LockFree
)

// Label is a node's insertion or deletion timestamp field. It starts
// unassigned and is assigned exactly once. Reads help in-flight DCSS
// labelings complete, so a range query never observes an undecided
// label in the lock-free variant.
type Label struct {
	w dcss.Word
}

// pendingWord encodes core.Pending inside the dcss word, whose top bit
// is reserved for descriptor marks (core.Pending has it set). It is the
// largest storable value, so any real timestamp — logical counters and
// raw TSC reads alike stay far below 2^63 — orders strictly below it.
const pendingWord = uint64(dcss.MaxValue)

// Init marks the label unassigned. Must run before the node is
// published. Allocation-free, so labels in pooled nodes reset without
// heap traffic.
func (l *Label) Init() { l.w.Store(pendingWord) }

// Get returns the label, or core.Pending if unassigned.
func (l *Label) Get() core.TS {
	v := l.w.Read()
	if v == pendingWord {
		return core.Pending
	}
	return core.TS(v)
}

// Assigned reports whether the label has been set.
func (l *Label) Assigned() bool { return l.Get() != core.Pending }

// Provider labels nodes on behalf of updates and holds range queries'
// side of the variant's atomicity discipline.
type Provider struct {
	variant Variant
	src     core.Source
	mu      sync.RWMutex
	addr    *atomic.Uint64 // lock-free only
	tr      *trace.Recorder
}

// SetTrace attaches a flight recorder. Label runs in helping paths with
// no thread identity, so the provider reports through the recorder's
// shared aggregates (lock-wait and label spans, DCSS retry counts). A
// nil recorder (the default) keeps the hot paths on their current cost.
func (p *Provider) SetTrace(tr *trace.Recorder) { p.tr = tr }

// NewLockBased returns the readers-writer-lock variant over any source.
// With a hardware source the lock is retained, as the algorithm requires.
func NewLockBased(src core.Source) *Provider {
	return &Provider{variant: LockBased, src: src}
}

// NewLockFree returns the DCSS variant. The source must be a
// *core.LogicalSource, whose timestamp lives at an address; every other
// source yields ErrRequiresAddress.
func NewLockFree(src core.Source) (*Provider, error) {
	l, ok := src.(*core.LogicalSource)
	if !ok {
		return nil, ErrRequiresAddress
	}
	return &Provider{variant: LockFree, src: src, addr: l.Addr()}, nil
}

// Variant reports the labeling discipline in use.
func (p *Provider) Variant() Variant { return p.variant }

// Source reports the underlying timestamp source.
func (p *Provider) Source() core.Source { return p.src }

// RQLock acquires the range-query side of the labeling discipline: in
// the lock-based variant the exclusive half of the readers-writer lock,
// which waits out every in-flight (read, label) pair so that labels
// assigned after the caller reads its snapshot bound are at least that
// bound. A no-op in the lock-free variant, whose DCSS validates the
// bound at its address instead.
//
// core.Reader takes a range query's bound between RQLock and RQUnlock:
// labels assigned by updates that linearize later are strictly greater
// than it (up to the theoretical TSC tie of §III-A). A cross-shard query
// locks every overlapping shard's provider, in shard order, around one
// read of the shared source.
func (p *Provider) RQLock() {
	if p.variant != LockBased {
		return
	}
	if p.tr != nil {
		w := p.tr.Now()
		p.mu.Lock()
		p.tr.SharedSpan(trace.PhaseLockWait, w)
		return
	}
	p.mu.Lock()
}

// RQUnlock releases what RQLock acquired (a no-op in the lock-free
// variant).
func (p *Provider) RQUnlock() {
	if p.variant != LockBased {
		return
	}
	p.mu.Unlock()
}

// Label assigns the current timestamp to l atomically with reading it,
// returning the assigned value. Labels are assigned exactly once: when
// helpers race, the first assignment wins and everyone returns it, so
// observers never see a label change.
func (p *Provider) Label(l *Label) core.TS {
	if v := l.Get(); v != core.Pending {
		return v // already linearized by a helper; no lock traffic
	}
	if p.variant == LockBased {
		if p.tr != nil {
			// Split the pair for the recorder: time to get into the lock's
			// shared section (the paper's bottleneck) vs. the labeling
			// itself.
			w := p.tr.Now()
			p.mu.RLock()
			p.tr.SharedSpan(trace.PhaseLockWait, w)
			lb := p.tr.Now()
			t := p.src.Peek()
			if !l.w.CAS(pendingWord, uint64(t)) {
				t = l.Get()
			}
			p.mu.RUnlock()
			p.tr.SharedSpan(trace.PhaseLabel, lb)
			return t
		}
		p.mu.RLock()
		t := p.src.Peek()
		if !l.w.CAS(pendingWord, uint64(t)) {
			t = l.Get()
		}
		p.mu.RUnlock()
		return t
	}
	var retries uint64
	for {
		t := p.addr.Load()
		cur, ok := l.w.DCSS(p.addr, t, pendingWord, t)
		if ok {
			p.tr.SharedCount(trace.PhaseRetry, retries)
			return core.TS(t)
		}
		if cur != pendingWord {
			p.tr.SharedCount(trace.PhaseRetry, retries)
			return core.TS(cur) // someone else labeled it
		}
		// The global timestamp moved between read and swap; retry.
		retries++
	}
}

// VisibleAt reports whether a node labeled (itime, dtime) belongs to the
// snapshot at bound s. An unassigned insertion label means the insert
// linearizes after s (exclude); an unassigned deletion label means the
// node is alive at s or its deletion linearizes after s (include).
func VisibleAt(itime, dtime core.TS, s core.TS) bool {
	return itime != core.Pending && itime <= s &&
		(dtime == core.Pending || dtime > s)
}
