package core

import (
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
)

// AllocMode selects where a structure's nodes come from (Config.Alloc).
// It is declared here, not beside the pool, so that the version and entry
// layers, which import core, stay free of any allocation policy.
type AllocMode int

const (
	// AllocGC allocates everything through the Go runtime (the default).
	AllocGC AllocMode = iota
	// AllocPool recycles through per-thread free lists what an EBR-RQ
	// technique's epoch manager proves unreachable (package pool).
	AllocPool
)

// String names the mode as it appears in snapshots and bench labels.
func (m AllocMode) String() string {
	switch m {
	case AllocGC:
		return "GC"
	case AllocPool:
		return "Pool"
	}
	return "unknown"
}

// Hooks are the sinks a structure variant reports into, handed to its
// constructor and from there to its Reader and its technique's lifecycle:
// a variant is wired once, when it is built. The zero value wires
// nothing: a nil sink costs one pointer test where it would have reported,
// and Alloc's zero value is the Go allocator.
type Hooks struct {
	GC        *obs.GC         // reclamation counters
	Trace     *trace.Recorder // flight recorder: phase spans and counts
	ReadBound *ReadBound      // retention watermark truncation must respect
	Alloc     AllocMode       // where an EBR-RQ technique's nodes come from; vCAS and Bundle use the GC
	PoolStats *obs.PoolStats  // pool hit/miss counters; unused without a pool
}

// HooksOf is the Hooks a constructor's optional trailing argument holds:
// the zero Hooks when it is absent. Passing two is a bug and panics.
func HooksOf(h []Hooks) Hooks {
	switch len(h) {
	case 0:
		return Hooks{}
	case 1:
		return h[0]
	}
	panic("core: more than one Hooks")
}

// Bound is a technique's rule for taking a range query's snapshot bound:
// who advances the timestamp and who only reads it. It is the one thing
// the paper's three techniques differ in on the query side, and each
// variant states it once, when it builds its Reader.
type Bound struct {
	peek bool
	lock RQLocker
}

// RQLocker is the range-query side of a label lock (ebrrq.Provider),
// taken on behalf of thread tid.
type RQLocker interface {
	RQLock(tid int)
	RQUnlock()
}

var (
	// QueryAdvances is vCAS (Wei et al.): the query advances the
	// timestamp (Source.Snapshot) and updates only read it — the
	// fetch-and-add that dominates read-heavy workloads on a logical
	// source until TSC removes it.
	QueryAdvances = Bound{}
	// QueryReads is Bundled References (Nelson et al.): updates advance
	// the timestamp and the query only reads it (Source.Peek), so a
	// read-only workload gains nothing from TSC and an update-heavy one
	// does.
	QueryReads = Bound{peek: true}
)

// QueryAdvancesLocked is EBR-RQ (Arbel-Raviv & Brown): the query advances
// the timestamp while holding the exclusive half of the label lock, which
// waits out every in-flight (read timestamp, write label) pair. TSC
// replaces the counter but not the lock, the paper's negative result.
func QueryAdvancesLocked(l RQLocker) Bound { return Bound{lock: l} }

// Collector is the collect-at-bound half of a structure's range query:
// append every pair of [lo, hi] visible at s to out. The caller has
// announced s on th and withdraws it; see Reader.
type Collector interface {
	RangeQueryAt(th *Thread, lo, hi uint64, s TS, out []KV) []KV
}

// blockShift sizes the key blocks a partitioned map deals to its parts in
// rotation: 256 keys (EXPERIMENTS.md "Shards own key blocks").
const blockShift = 8

// PartOf maps key to the part, of n, owning its block: how a sharded map
// routes a key, its log picks a stream and a Reader finds the parts hit.
func PartOf(key uint64, n int) int { return int((key >> blockShift) % uint64(n)) }

// part is one structure's share of a snapshot read: its collect walk and,
// for EBR-RQ, its label lock.
type part struct {
	at   Collector
	lock RQLocker // nil unless the technique's queries lock
}

// Reader is the snapshot-read protocol, written once for every variant
// and for the cross-shard fan-out: reserve, take (or validate) one bound,
// announce it, collect every part at it, revalidate, withdraw. It is the
// only code that stores to a range query's announcement slot: one
// announcement must outlive every part's collection, so no part may
// withdraw it. A structure's Reader has one part; NewFanout's has one per
// shard, all labeled from one shared source and registered in one shared
// Registry, with part i owning the key blocks ≡ i modulo the part count
// (PartOf). Pairs come back in ascending key order. DESIGN.md "Snapshot
// reads" has the argument.
type Reader struct {
	src   Source
	peek  bool
	parts []part
	phase trace.Phase       // what taking the bound is recorded as
	tr    *trace.Recorder   // nil-safe
	rb    *ReadBound        // nil-safe; validates historical bounds
	stats []*obs.ShardStats // per-part range-query counts; nil when not fanned out
}

// NewReader builds a structure's Reader: one part, collected by at, whose
// bound is taken from src by rule b, reporting to h's recorder and
// validating historical bounds against h's retention watermark.
func NewReader(src Source, b Bound, at Collector, h Hooks) *Reader {
	return &Reader{src: src, peek: b.peek, parts: []part{{at, b.lock}}, phase: trace.PhaseTimestamp, tr: h.Trace, rb: h.ReadBound}
}

// NewFanout builds the Reader of a map partitioned over shards, which
// must share one source, one registry, one technique and one set of
// hooks: the fan-out takes the recorder and the watermark its parts were
// built with. stats, when non-nil, counts the range queries that touched
// each shard.
func NewFanout(shards []*Reader, stats []*obs.ShardStats) *Reader {
	r := &Reader{src: shards[0].src, peek: shards[0].peek, phase: trace.PhaseShardFanout, tr: shards[0].tr, rb: shards[0].rb, stats: stats}
	for _, s := range shards {
		r.parts = append(r.parts, s.parts...)
	}
	return r
}

// Live appends the pairs of [lo, hi] as of one fresh bound to out.
func (r *Reader) Live(th *Thread, lo, hi uint64, out []KV) []KV {
	out, _, _ = r.Read(th, lo, hi, 0, true, out)
	return out
}

// Read appends the pairs of [lo, hi] as of one bound to out, in ascending
// key order, and returns the bound with them: a fresh one when live, else
// the past timestamp ts — then the technique must retain history (vCAS,
// Bundle), and a ts outside it returns out unchanged with
// ErrTruncatedHistory or ErrFutureTimestamp. A live read cannot fail.
func (r *Reader) Read(th *Thread, lo, hi uint64, s TS, live bool, out []KV) ([]KV, TS, error) {
	// [lo, hi] spans width+1 key blocks, dealt to the parts in rotation
	// from first, lo's part. Visited in that order the parts it hits return
	// their blocks ascending, unless it spans more blocks than there are
	// parts and a part returns two: then the pairs are sorted once.
	n := uint64(len(r.parts))
	first, width := uint64(PartOf(lo, len(r.parts))), hi>>blockShift-lo>>blockShift
	hits := min(width, n-1) + 1
	hit := func(i int) bool { return (uint64(i)+n-first)%n < hits }

	tr, base := r.tr, len(out)
	for {
		mark := tr.Now(th.ID)
		// Reserve before the bound exists: ReservedRQ pins MinActiveRQ at
		// zero, so nothing the bound could need is pruned between obtaining
		// it and announcing it.
		th.BeginRQ()
		switch {
		case !live:
			if err := r.rb.CheckAt(s); err != nil {
				th.DoneRQ()
				return out, s, err
			}
		case r.peek:
			s = r.src.Peek()
		default:
			// Ascending order, so concurrent fan-outs cannot deadlock.
			for i, p := range r.parts {
				if p.lock != nil && hit(i) {
					p.lock.RQLock(th.ID)
				}
			}
			s = r.src.Snapshot()
			for i, p := range r.parts {
				if p.lock != nil && hit(i) {
					p.lock.RQUnlock()
				}
			}
		}
		if live {
			tr.Span(th.ID, r.phase, mark)
		}
		th.AnnounceRQ(s)
		for j, i := uint64(0), first; j < hits; j, i = j+1, i+1 {
			if i == n {
				i = 0
			}
			out = r.parts[i].at.RangeQueryAt(th, lo, hi, s, out)
		}
		// A past ts is a fixed number: "labels <= ts" is the same cut in
		// every later generation, so only a fresh bound needs revalidating.
		if !live || SnapshotValid(r.src, s) {
			th.DoneRQ()
			if n > 1 && width >= n {
				SortKVs(out[base:])
			}
			for j := uint64(0); r.stats != nil && j < hits; j++ {
				r.stats[(first+j)%n].RQs.Inc()
			}
			return out, s, nil
		}
		// The source switched generations under the bound, which orders
		// only against labels of its own generation: discard and redo.
		tr.Span(th.ID, trace.PhaseSourceSwitch, mark)
		out = out[:base]
	}
}
