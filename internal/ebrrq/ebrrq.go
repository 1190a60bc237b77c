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
//     fundamentally incompatible with TSC; New returns
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
	// tr is the flight recorder, nil (the default) for none. Label and
	// RQLock record their lock-wait and label spans and DCSS retry counts
	// as the caller's, when the caller's operation is sampled; a helping
	// label, which has no thread identity in hand (tid -1), records
	// nothing.
	tr *trace.Recorder
}

// New returns the labeling discipline variant selects over src. With a
// hardware source the lock-based variant retains its lock, as the
// algorithm requires. The lock-free variant needs a *core.LogicalSource,
// whose timestamp lives at an address; every other source yields
// ErrRequiresAddress — the paper's "TSC cannot be used at all".
func New(src core.Source, variant Variant) (*Provider, error) {
	if variant != LockFree {
		return &Provider{variant: LockBased, src: src}, nil
	}
	l, ok := src.(*core.LogicalSource)
	if !ok {
		return nil, ErrRequiresAddress
	}
	return &Provider{variant: LockFree, src: src, addr: l.Addr()}, nil
}

// Source reports the underlying timestamp source.
func (p *Provider) Source() core.Source { return p.src }

// RQLock acquires, for thread tid, the range-query side of the labeling
// discipline: in the lock-based variant the exclusive half of the
// readers-writer lock, which waits out every in-flight (read, label) pair
// so that labels assigned after the caller reads its snapshot bound are at
// least that bound. A no-op in the lock-free variant, whose DCSS validates
// the bound at its address instead.
//
// core.Reader takes a range query's bound between RQLock and RQUnlock:
// labels assigned by updates that linearize later are strictly greater
// than it (up to the theoretical TSC tie of §III-A). A cross-shard query
// locks every overlapping shard's provider, in shard order, around one
// read of the shared source.
func (p *Provider) RQLock(tid int) {
	if p.variant != LockBased {
		return
	}
	w := p.tr.Now(tid)
	p.mu.Lock()
	p.tr.Span(tid, trace.PhaseLockWait, w)
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
// returning the assigned value, on behalf of thread tid (-1 for a helper
// without one, which records nothing). Labels are assigned exactly once:
// when helpers race, the first assignment wins and everyone returns it,
// so observers never see a label change.
func (p *Provider) Label(tid int, l *Label) core.TS {
	if v := l.Get(); v != core.Pending {
		return v // already linearized by a helper; no lock traffic
	}
	if p.variant == LockBased {
		// The pair splits for the recorder: time to get into the lock's
		// shared section (the paper's bottleneck) vs. the labeling itself.
		w := p.tr.Now(tid)
		p.mu.RLock()
		p.tr.Span(tid, trace.PhaseLockWait, w)
		lb := p.tr.Now(tid)
		t := p.src.Peek()
		if !l.w.CAS(pendingWord, uint64(t)) {
			t = l.Get()
		}
		p.mu.RUnlock()
		p.tr.Span(tid, trace.PhaseLabel, lb)
		return t
	}
	var retries uint64
	for {
		t := p.addr.Load()
		cur, ok := l.w.DCSS(p.addr, t, pendingWord, t)
		if ok {
			p.tr.Count(tid, trace.PhaseRetry, retries)
			return core.TS(t)
		}
		if cur != pendingWord {
			p.tr.Count(tid, trace.PhaseRetry, retries)
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
