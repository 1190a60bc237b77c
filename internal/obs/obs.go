// Package obs is the library's zero-dependency observability layer:
// atomic counters, gauges, and lock-free latency histograms with fixed
// log-scale buckets, aggregated in a Registry with a Snapshot/expvar-style
// export surface.
//
// The paper's argument is quantitative — timestamp-advance contention,
// range-query/update interference, and version-reclamation pressure decide
// whether hardware timestamps win — so the hot paths report here when (and
// only when) a caller opts in by passing a *Registry. Every instrument is
// a plain atomic on its own cache-line pair; a nil registry costs a single
// predictable branch on the instrumented paths.
//
// Wiring happens once, when a map is built: the map attaches to its
// registry in one Registry.Attach call, which names it and hands back its
// shards' counters, and every layer below receives the blocks it reports
// into (GC, Pool, Source) as constructor arguments. Nothing is wired
// after construction.
//
// The package deliberately imports nothing from the rest of the library so
// that every layer (core, the technique packages, the facade, the bench
// harness) can report through it without import cycles.
package obs

import (
	"cmp"
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
)

// cacheLine mirrors core's padding policy: two lines per instrument to
// defeat the adjacent-line prefetcher, so metric traffic never
// false-shares with the data it measures or with neighbouring metrics.
const cacheLine = 64

// Counter is a monotonically increasing atomic counter alone on its own
// pair of cache lines. The zero value is ready to use.
type Counter struct {
	_ [cacheLine]byte
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic signed level (something that goes up and down, like
// a limbo-list population). The zero value is ready to use.
type Gauge struct {
	_ [cacheLine]byte
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistBuckets is the number of histogram buckets. Bucket 0 holds zero
// observations; bucket i (i >= 1) holds values in [2^(i-1), 2^i)
// nanoseconds; the last bucket absorbs everything larger (>= 2^38 ns,
// about 4.6 minutes — far beyond any data-structure operation).
const HistBuckets = 40

// Histogram is a lock-free latency histogram over fixed log2-scale
// nanosecond buckets. Observations are two atomic adds and a CAS-loop max
// update; no locks, no allocation. The count is the bucket sum. The zero
// value is ready to use.
type Histogram struct {
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [HistBuckets]atomic.Uint64
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns uint64) int {
	i := bits.Len64(ns)
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// BucketUpperNS returns the inclusive upper bound (in ns) of bucket i,
// i.e. the largest value the bucket can hold. The last bucket is
// unbounded and reports the maximum uint64.
func BucketUpperNS(i int) uint64 {
	if i >= HistBuckets-1 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// ObserveNS records one observation of ns nanoseconds.
func (h *Histogram) ObserveNS(ns uint64) {
	h.buckets[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// merge adds o's observations to h.
func (h *Histogram) merge(o *Histogram) {
	h.sum.Add(o.sum.Load())
	if m := o.max.Load(); m > h.max.Load() {
		h.max.Store(m)
	}
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
}

// QuantileNS estimates the q-quantile in nanoseconds, for q in (0, 1],
// by log-linear interpolation: the winning log2 bucket is located by
// rank, then the estimate moves linearly across that bucket's
// [2^(i-1), 2^i) span according to the rank's position among the
// bucket's own observations. (Reporting the bucket boundary instead —
// what this function did originally — biased every quantile high by up
// to the 2x bucket width.) Estimates never exceed the observed maximum,
// and the unbounded tail bucket reports the maximum directly. With
// concurrent writers the estimate is approximate in the usual
// monitoring sense.
func (h *Histogram) QuantileNS(q float64) uint64 {
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		n := h.buckets[i].Load()
		if cum+n < rank {
			cum += n
			continue
		}
		if i == 0 {
			return 0 // the zero bucket holds only zero observations
		}
		max := h.max.Load()
		if i == HistBuckets-1 {
			// Unbounded tail: the observed maximum is the only finite
			// bound available.
			return max
		}
		lo := uint64(1) << uint(i-1) // inclusive lower bound, width == lo
		pos := float64(rank-cum) / float64(n)
		est := uint64(float64(lo) + pos*float64(lo))
		if up := 2*lo - 1; est > up {
			est = up
		}
		if est < lo {
			est = lo
		}
		if max > 0 && est > max {
			est = max
		}
		return est
	}
	return BucketUpperNS(HistBuckets - 1)
}

// BucketCount is one nonzero histogram bucket in a snapshot.
type BucketCount struct {
	// UpToNS is the bucket's inclusive upper bound in nanoseconds.
	UpToNS uint64 `json:"le_ns"`
	Count  uint64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a Histogram. Buckets lists only
// nonzero buckets, smallest bound first.
type HistSnapshot struct {
	Count   uint64        `json:"count"`
	SumNS   uint64        `json:"sum_ns"`
	MeanNS  uint64        `json:"mean_ns"`
	MaxNS   uint64        `json:"max_ns"`
	P50NS   uint64        `json:"p50_ns"`
	P95NS   uint64        `json:"p95_ns"`
	P99NS   uint64        `json:"p99_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram. Concurrent observations may straddle the
// copy; totals are internally consistent to within in-flight operations,
// and Count is the sum of Buckets.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{SumNS: h.sum.Load(), MaxNS: h.max.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Count += n
			s.Buckets = append(s.Buckets, BucketCount{UpToNS: BucketUpperNS(i), Count: n})
		}
	}
	if s.Count > 0 {
		s.MeanNS = s.SumNS / s.Count
	}
	s.P50NS = h.QuantileNS(0.50)
	s.P95NS = h.QuantileNS(0.95)
	s.P99NS = h.QuantileNS(0.99)
	return s
}

// OpClass labels the operation classes the facade instruments, matching
// the paper's U-RQ-C workload split. The flight recorder brackets the same
// classes.
type OpClass uint8

const (
	// OpUpdate covers Insert and Delete.
	OpUpdate OpClass = iota
	// OpRange covers RangeQuery and Scan.
	OpRange
	// OpContains covers Contains and Get.
	OpContains

	// NumOpClasses is the number of op classes.
	NumOpClasses
)

// String names the class as it appears in snapshot JSON.
func (c OpClass) String() string {
	switch c {
	case OpUpdate:
		return "update"
	case OpRange:
		return "range-query"
	case OpContains:
		return "contains"
	}
	return "unknown"
}

// The registry's counter blocks (Source, GC, History, Pool, WAL) each come
// as two structs over the same field names: a live one of Counter and Gauge
// fields that the instrumented paths write, and a snapshot one whose
// uint64 (counter) and int64 (gauge) fields carry the JSON key and the
// help text. The snapshot struct is the one declaration of a metric:
// Snapshot fills it from the same-named live field, the JSON is
// encoding/json over it, and WriteProm exports it as
// tscds_<block>_<json key> (with _total on a counter). A string field
// tagged prom:"label" labels every family of its block; the string fields
// are filled from the attached maps' Labels.

// SourceStats counts timestamp-source traffic. On a logical source every
// Advance is one fetch-and-add on the shared counter, so Advances is a
// direct proxy for the contention the paper measures; on hardware sources
// all of them are core-local reads and the counts only describe the
// workload's timestamp appetite.
type SourceStats struct {
	Advances, Peeks, Snapshots, SnapshotRetries Counter
}

// SourceSnapshot is a point-in-time copy of SourceStats.
type SourceSnapshot struct {
	// Kind is the timestamp kind label ("Logical", "RDTSCP", ...).
	Kind string `json:"kind,omitempty"`
	// Actual is the kind actually serving reads when it differs from the
	// requested Kind — e.g. "Monotonic" when RDTSCP was requested on a
	// host without it. Empty when the request is honored.
	Actual          string `json:"actual,omitempty"`
	Advances        uint64 `json:"advances" help:"Timestamp-source Advance calls (one fetch-and-add per call on a logical source)."`
	Peeks           uint64 `json:"peeks" help:"Timestamp-source Peek calls."`
	Snapshots       uint64 `json:"snapshots" help:"Snapshot-bound acquisitions: one per range-query attempt or live checkpoint, and one per Map.Now call (the repository benchmark's full-stack workload stamps one every 64 ops)."`
	SnapshotRetries uint64 `json:"snapshot_retries,omitempty" help:"Range-query snapshots discarded and re-run after an adaptive-source generation switch."`
}

// GC is the reclamation-reporting hook shared by every technique family:
// bundle entries and vCAS versions dropped by truncation, EBR-RQ
// limbo-list churn. A nil *GC disables reporting.
type GC struct {
	BundleEntriesPruned, VcasVersionsPruned, LimboRetired, LimboPruned Counter
	LimboLen                                                           Gauge
}

// GCSnapshot is a point-in-time copy of GC.
type GCSnapshot struct {
	BundleEntriesPruned uint64 `json:"bundle_entries_pruned" help:"Bundle history entries dropped by truncation."`
	VcasVersionsPruned  uint64 `json:"vcas_versions_pruned" help:"vCAS versions dropped by chain truncation."`
	LimboRetired        uint64 `json:"limbo_retired" help:"Nodes placed on EBR-RQ limbo lists."`
	LimboPruned         uint64 `json:"limbo_pruned" help:"Limbo nodes released by epoch and range-query retention."`
	LimboLen            int64  `json:"limbo_len" help:"Current total limbo population."`
}

// HistoryStats counts MVCC time-travel reads (Map.GetAt/RangeQueryAt/
// ScanAt at caller-chosen past timestamps). Reads that refuse with
// ErrHistoryUnsupported or ErrFutureTimestamp are not counted: the first
// is a static capability miss, the second a caller bug. A growing
// Truncations rate means readers want more history than Config.Retention
// keeps.
type HistoryStats struct {
	Reads, Truncations Counter
}

// HistorySnapshot is a point-in-time copy of HistoryStats.
type HistorySnapshot struct {
	Reads       uint64 `json:"reads" help:"Historical (time-travel) reads served from retained version history."`
	Truncations uint64 `json:"truncations" help:"Historical reads refused with ErrTruncatedHistory (timestamp below the retention watermark)."`
}

// PoolStats counts node-pool traffic when an EBR-RQ structure runs with
// Config.Alloc = AllocPool. A nil *PoolStats disables reporting.
type PoolStats struct {
	Hits, Misses, Recycled Counter
}

// PoolSnapshot is a point-in-time copy of PoolStats.
type PoolSnapshot struct {
	// Mode is the allocation mode label ("Pool").
	Mode     string `json:"mode,omitempty" prom:"label"`
	Hits     uint64 `json:"hits" help:"Allocations served from recycled nodes: a per-thread free list or the shared pool."`
	Misses   uint64 `json:"misses" help:"Allocations that fell through to the runtime allocator."`
	Recycled uint64 `json:"recycled" help:"Retired nodes proven unreachable and recycled to free lists."`
}

// ShardStats counts one shard's share of a sharded map's traffic: Op
// counts point operations (insert/delete/contains/get) routed to the
// shard by the key partition, striped by thread like the op histograms;
// RQs is range-query collections that visited the shard (one range query
// increments RQs on every overlapping shard).
type ShardStats struct {
	ops [opStripes]Counter
	RQs Counter
}

// Op counts one point operation routed to the shard by the thread with
// ID tid.
func (s *ShardStats) Op(tid int) { s.ops[uint(tid)%opStripes].Inc() }

// Ops returns the point operations routed to the shard.
func (s *ShardStats) Ops() uint64 {
	var n uint64
	for i := range s.ops {
		n += s.ops[i].Load()
	}
	return n
}

// ShardSnapshot is a point-in-time copy of one shard's stats.
type ShardSnapshot struct {
	Ops uint64 `json:"ops"`
	RQs uint64 `json:"rqs"`
}

// opStripes is the number of per-thread stripes of the op histograms: a
// thread writes the stripe of its ID modulo opStripes, so up to opStripes
// threads record operations without sharing a cache line. A power of two.
const opStripes = 8

// opStripe is one stripe's histogram per op class, on cache lines of its
// own.
type opStripe struct {
	_  [cacheLine]byte
	op [NumOpClasses]Histogram
}

// Registry aggregates the metrics of the maps attached to it: per-class
// operation latency histograms (which carry the op counts), the counter
// blocks, and — for sharded maps — per-shard routing counts. A Registry is
// safe for concurrent use by any number of goroutines; the instruments are
// independent atomics.
type Registry struct {
	ops     [opStripes]opStripe
	Source  SourceStats
	GC      GC
	Pool    PoolStats
	WAL     WALStats
	History HistoryStats
	mu      sync.Mutex // guards labels and shards: written by Attach, read by Snapshot
	labels  Labels
	shards  []*ShardStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// ObserveOp records one completed operation of class c that took ns
// nanoseconds on the thread with ID tid.
func (r *Registry) ObserveOp(tid int, c OpClass, ns uint64) {
	r.ops[uint(tid)%opStripes].op[c].ObserveNS(ns)
}

// Labels name a map attached to a registry in its snapshots.
type Labels struct {
	Structure string        // structure/technique ("bst/vcas", ...), also the structure= Prometheus label
	Source    string        // the requested timestamp kind ("Logical", "RDTSCP", ...)
	Actual    func() string // called at every snapshot: the kind serving reads now (fallback, failover)
	Alloc     string        // allocation mode ("Pool") when the map runs a node pool, else empty
	WAL       string        // durability mode ("sync", "batched(N)") when the map is durable, else empty
}

// Attach wires a map to r, once, before the map sees traffic, and returns
// the stats of its shards (nil for shards == 0, a flat map). Several maps
// may share r; their counters then aggregate. The structure and source
// labels are the last attached map's, the Pool and WAL blocks show once
// any attached map feeds them, and the shard table grows to the widest
// attached map: shard i counts every attached map's shard i.
func (r *Registry) Attach(l Labels, shards int) []*ShardStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	l.Alloc, l.WAL = cmp.Or(l.Alloc, r.labels.Alloc), cmp.Or(l.WAL, r.labels.WAL)
	r.labels = l
	if shards == 0 {
		return nil
	}
	for len(r.shards) < shards {
		r.shards = append(r.shards, &ShardStats{})
	}
	return r.shards[:shards:shards]
}

// Snapshot is the exported point-in-time state of a Registry. It
// marshals to the JSON shape documented in the README's Observability
// section.
type Snapshot struct {
	// Structure is the last attached map's structure/technique label
	// ("bst/vcas", ...); empty when no map is attached.
	Structure string                  `json:"structure,omitempty"`
	Source    SourceSnapshot          `json:"source"`
	Ops       map[string]HistSnapshot `json:"ops"`
	GC        GCSnapshot              `json:"gc"`
	// Pool is present only once an attached map runs a node pool.
	Pool *PoolSnapshot `json:"pool,omitempty"`
	// WAL is present only once an attached map is durable.
	WAL *WALSnapshot `json:"wal,omitempty"`
	// History is present once the map has served or refused at least
	// one time-travel read.
	History *HistorySnapshot `json:"history,omitempty"`
	// Shards is present only once a sharded map is attached.
	Shards []ShardSnapshot `json:"shards,omitempty"`
}

// field is one string or numeric field of a block's snapshot struct.
type field struct {
	index, live int // in the snapshot struct and in the live struct
	key, help   string
	kind        reflect.Kind // String, Uint64 (a counter) or Int64 (a gauge)
	label       bool         // a string exported as a Prometheus label
}

// block is a Snapshot field that mirrors the same-named Registry field.
type block struct {
	name        string // the Snapshot field's JSON key
	index, live int    // in Snapshot and in Registry
	fields      []field
}

// blocks are the registry's counter blocks in Snapshot's field order.
var blocks = blocksOf(reflect.TypeOf(Snapshot{}), reflect.TypeOf(Registry{}))

// blocksOf pairs every struct (or pointer-to-struct) field of snap with
// the same-named field of reg. A numeric snapshot field without a live
// Counter or Gauge of its name is a declaration bug and panics at init.
func blocksOf(snap, reg reflect.Type) []block {
	liveType := map[reflect.Kind]reflect.Type{
		reflect.Uint64: reflect.TypeOf(Counter{}),
		reflect.Int64:  reflect.TypeOf(Gauge{}),
	}
	var out []block
	for i := 0; i < snap.NumField(); i++ {
		sf := snap.Field(i)
		t := sf.Type
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		rf, ok := reg.FieldByName(sf.Name)
		if !ok || t.Kind() != reflect.Struct {
			continue
		}
		b := block{name: jsonKey(sf), index: i, live: rf.Index[0]}
		for j := 0; j < t.NumField(); j++ {
			f := t.Field(j)
			fd := field{index: j, live: -1, key: jsonKey(f), help: f.Tag.Get("help"),
				kind: f.Type.Kind(), label: f.Tag.Get("prom") == "label"}
			if fd.kind != reflect.String {
				lf, ok := rf.Type.FieldByName(f.Name)
				if want := liveType[fd.kind]; !ok || want == nil || lf.Type != want {
					panic("obs: " + sf.Name + "." + f.Name + " has no live Counter or Gauge of its name")
				}
				fd.live = lf.Index[0]
			}
			b.fields = append(b.fields, fd)
		}
		out = append(out, b)
	}
	return out
}

// jsonKey is a struct field's JSON key.
func jsonKey(f reflect.StructField) string {
	key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return key
}

// Snapshot copies every instrument. A nil registry yields the zero
// Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{Ops: make(map[string]HistSnapshot, int(NumOpClasses))}
	rv, sv := reflect.ValueOf(r).Elem(), reflect.ValueOf(&s).Elem()
	for _, b := range blocks {
		dst, live := sv.Field(b.index), rv.Field(b.live)
		if dst.Kind() == reflect.Pointer {
			dst.Set(reflect.New(dst.Type().Elem()))
			dst = dst.Elem()
		}
		for _, f := range b.fields {
			switch f.kind {
			case reflect.Uint64:
				dst.Field(f.index).SetUint(live.Field(f.live).Addr().Interface().(*Counter).Load())
			case reflect.Int64:
				dst.Field(f.index).SetInt(live.Field(f.live).Addr().Interface().(*Gauge).Load())
			}
		}
	}
	r.mu.Lock()
	l, shards := r.labels, r.shards
	r.mu.Unlock()
	s.Structure, s.Source.Kind, s.Pool.Mode, s.WAL.Mode = l.Structure, l.Source, l.Alloc, l.WAL
	if l.Actual != nil {
		if v := l.Actual(); s.Source.Kind == "" || v != s.Source.Kind {
			s.Source.Actual = v
		}
	}
	if l.Alloc == "" {
		s.Pool = nil
	}
	if l.WAL == "" {
		s.WAL = nil
	}
	if s.History.Reads+s.History.Truncations == 0 {
		s.History = nil
	}
	for c := OpClass(0); c < NumOpClasses; c++ {
		var h Histogram
		for i := range r.ops {
			h.merge(&r.ops[i].op[c])
		}
		s.Ops[c.String()] = h.Snapshot()
	}
	if len(shards) > 0 {
		s.Shards = make([]ShardSnapshot, len(shards))
		for i, st := range shards {
			s.Shards[i] = ShardSnapshot{Ops: st.Ops(), RQs: st.RQs.Load()}
		}
	}
	return s
}

// String renders the snapshot as JSON, making *Registry an expvar.Var so
// callers can expvar.Publish("tscds", registry) directly. A nil registry
// renders as null.
func (r *Registry) String() string {
	if r == nil {
		return "null"
	}
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}
