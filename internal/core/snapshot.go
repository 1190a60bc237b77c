package core

import (
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/pool"
)

// Hooks are the sinks a structure variant reports into, handed over in
// one SetHooks call before the structure sees traffic. The zero value
// wires nothing: a nil sink costs one pointer test where it would have
// reported, and Alloc's zero value is the Go allocator.
type Hooks struct {
	GC        *obs.GC         // reclamation counters
	Trace     *trace.Recorder // flight recorder: phase spans and counts
	ReadBound *ReadBound      // retention watermark truncation must respect
	Alloc     pool.Mode       // where nodes, versions and entries come from
	PoolStats *obs.PoolStats  // pool hit/miss counters; unused in GC mode
}

// Bound is a technique's rule for taking a range query's snapshot bound:
// who advances the timestamp and who only reads it. It is the one thing
// the paper's three techniques differ in on the query side, and each
// variant states it once, when it builds its Reader.
type Bound struct {
	peek bool
	lock RQLocker
}

// RQLocker is the range-query side of a label lock (ebrrq.Provider).
type RQLocker interface {
	RQLock()
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
// announce s on th, append every pair of [lo, hi] visible at s to out,
// withdraw the announcement. The caller holds th's reservation (BeginRQ)
// from before s was obtained; see Reader.
type Collector interface {
	RangeQueryAt(th *Thread, lo, hi uint64, s TS, out []KV) []KV
}

// part is one structure's share of a snapshot read.
type part struct {
	at   Collector
	lock RQLocker // nil unless the technique's queries lock
}

// Reader is the snapshot-read protocol, written once for every variant
// and for the cross-shard fan-out: reserve, take (or validate) one bound,
// collect every part at it, revalidate. A structure's Reader has one
// part; NewFanout's has one per shard, all labeled from one shared
// source, with part i owning the keys of residue i modulo the part count.
// DESIGN.md "Snapshot reads" has the argument.
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
// bound is taken from src by rule b.
func NewReader(src Source, b Bound, at Collector) *Reader {
	return &Reader{src: src, peek: b.peek, parts: []part{{at, b.lock}}, phase: trace.PhaseTimestamp}
}

// NewFanout builds the Reader of a map partitioned over shards, which
// must share one source and one technique. stats, when non-nil, counts
// the range queries that touched each shard.
func NewFanout(shards []*Reader, stats []*obs.ShardStats) *Reader {
	r := &Reader{src: shards[0].src, peek: shards[0].peek, phase: trace.PhaseShardFanout, stats: stats}
	for _, s := range shards {
		r.parts = append(r.parts, s.parts...)
	}
	return r
}

// SetHooks wires the recorder and the retention watermark.
func (r *Reader) SetHooks(h Hooks) { r.tr, r.rb = h.Trace, h.ReadBound }

// Live appends the pairs of [lo, hi] as of one fresh bound to out.
func (r *Reader) Live(th *Thread, lo, hi uint64, out []KV) []KV {
	out, _, _ = r.Read(th, lo, hi, 0, true, out)
	return out
}

// Read appends the pairs of [lo, hi] as of one bound to out and returns
// the bound with them: a fresh one when live, else the past timestamp ts
// — then the technique must retain history (vCAS, Bundle), and a ts
// outside it returns out unchanged with ErrTruncatedHistory or
// ErrFutureTimestamp. A live read cannot fail.
func (r *Reader) Read(th *Thread, lo, hi uint64, s TS, live bool, out []KV) ([]KV, TS, error) {
	// Part i holds a key of [lo, hi] iff the interval covers a full residue
	// cycle (always, with one part) or i's residue distance from lo's part
	// is within the interval's width.
	n := uint64(len(r.parts))
	first, width := lo%n, hi-lo
	all := width >= n-1
	hit := func(i int) bool { return all || (uint64(i)+n-first)%n <= width }

	tr, base := r.tr, len(out)
	for {
		mark := tr.Now()
		// Reserve before the bound exists: ReservedRQ pins each part's
		// MinActiveRQ at zero, so nothing the bound could need is pruned
		// between obtaining it and announcing it.
		for i := range r.parts {
			if hit(i) {
				th.Shard(i).BeginRQ()
			}
		}
		switch {
		case !live:
			if err := r.rb.CheckAt(s); err != nil {
				for i := range r.parts {
					if hit(i) {
						th.Shard(i).DoneRQ()
					}
				}
				return out, s, err
			}
		case r.peek:
			s = r.src.Peek()
		default:
			// Ascending order, so concurrent fan-outs cannot deadlock.
			for i, p := range r.parts {
				if p.lock != nil && hit(i) {
					p.lock.RQLock()
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
		for i, p := range r.parts {
			if hit(i) {
				out = p.at.RangeQueryAt(th.Shard(i), lo, hi, s, out)
			}
		}
		// A past ts is a fixed number: "labels <= ts" is the same cut in
		// every later generation, so only a fresh bound needs revalidating.
		if !live || SnapshotValid(r.src, s) {
			if r.stats != nil {
				for i := range r.parts {
					if hit(i) {
						r.stats[i].RQs.Inc()
					}
				}
			}
			return out, s, nil
		}
		// The source switched generations under the bound, which orders
		// only against labels of its own generation: discard and redo.
		tr.Span(th.ID, trace.PhaseSourceSwitch, mark)
		out = out[:base]
	}
}
