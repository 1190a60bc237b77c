// Package tscds reproduces "Opportunities and Limitations of Hardware
// Timestamps in Concurrent Data Structures" (Grimes, Nelson-Slivon,
// Hassan, Palmieri — IPPS 2023) as a Go library: concurrent ordered maps
// with linearizable range queries, where the timestamp that synchronizes
// range queries with updates is pluggable between a global logical
// counter (the baseline) and the CPU's invariant TSC read with
// RDTSCP;LFENCE (the paper's contribution).
//
// Three range-query techniques are provided over four structures. New
// accepts exactly the combinations below (TestNewFullCrossProduct
// asserts the table against the constructor):
//
//	Structure   vCAS   Bundle   EBR-RQ(lock)   EBR-RQ(lock-free)
//	BST          yes    -        yes            Logical source only
//	Citrus       yes    yes      yes            Logical source only
//	SkipList     yes    yes      yes            Logical source only
//	LazyList     yes    yes      -              -
//
// The skip list's vCAS and EBR-RQ pairings reproduce results the paper
// built but omitted (no TSC gain was observed on them).
//
// Quickstart:
//
//	m, _ := tscds.New(tscds.BST, tscds.VCAS, tscds.Config{Source: tscds.TSC})
//	th, _ := m.RegisterThread()           // one handle per goroutine
//	m.Insert(th, 42, 420)
//	kvs := m.RangeQuery(th, 0, 100, nil)  // linearizable snapshot
//
// The combination rules mirror the paper: vCAS targets lock-free
// structures, bundles target lock-based ones, and lock-free EBR-RQ
// cannot use hardware timestamps at all (its DCSS must validate the
// timestamp at an address), which New reports as an error.
package tscds

import (
	"errors"
	"fmt"

	"tscds/internal/citrus"
	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/lfbst"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/skiplist"
	"tscds/internal/tsc"
	"tscds/internal/wal"
)

// KV is a key-value pair returned by range queries.
type KV = core.KV

// Thread is a per-goroutine operation handle. Obtain one per worker
// goroutine from Map.RegisterThread and Release it when done.
type Thread = core.Thread

// SourceKind selects the timestamp implementation: one of the four
// kinds below, the sources a map runs on.
type SourceKind = core.Kind

// Timestamp source kinds.
const (
	// Logical is the shared fetch-and-add counter (the baseline whose
	// contention the paper measures).
	Logical = core.Logical
	// TSC is RDTSCP;LFENCE — the paper's hardware timestamp API.
	TSC = core.TSC
	// Monotonic is the portable fallback clock.
	Monotonic = core.Monotonic
	// Adaptive starts on TSC and fails over to the logical counter when
	// the health monitor (Config.Health) records a fault the source has
	// not yet seen, failing back after a fault-free stretch. Timestamps
	// carry a source generation in their high bits; range queries
	// revalidate their bound against it and retry across a switch,
	// keeping snapshots linearizable. Without Config.Health it behaves
	// like TSC (plus the generation encoding).
	Adaptive = core.Adaptive
)

// Structure identifies a data structure.
type Structure int

// Structures evaluated in the paper (plus the lazy list it discusses).
const (
	// BST is the lock-free external binary search tree.
	BST Structure = iota
	// Citrus is the RCU-based internal BST with per-node locks.
	Citrus
	// SkipList is the lock-based lazy skip list.
	SkipList
	// LazyList is the lock-based sorted linked list: the skip list with
	// one level.
	LazyList
)

// String names the structure.
func (s Structure) String() string {
	switch s {
	case BST:
		return "lock-free BST"
	case Citrus:
		return "Citrus tree"
	case SkipList:
		return "skip list"
	case LazyList:
		return "lazy list"
	}
	return "unknown"
}

// Technique identifies a range-query algorithm.
type Technique int

// Range-query techniques from the paper.
const (
	// VCAS is the versioned-CAS technique (Wei et al.).
	VCAS Technique = iota
	// Bundle is bundled references (Nelson et al.).
	Bundle
	// EBRRQ is the lock-based EBR-RQ (Arbel-Raviv & Brown).
	EBRRQ
	// EBRRQLockFree is the DCSS-based EBR-RQ; logical timestamps only.
	EBRRQLockFree
)

// String names the technique.
func (t Technique) String() string {
	switch t {
	case VCAS:
		return "vCAS"
	case Bundle:
		return "Bundle"
	case EBRRQ:
		return "EBR-RQ"
	case EBRRQLockFree:
		return "EBR-RQ (lock-free)"
	}
	return "unknown"
}

// keepsHistory reports whether the technique retains per-key version
// history (vCAS and Bundle): what time travel reads, and why such a map
// runs no node pool.
func (t Technique) keepsHistory() bool { return t == VCAS || t == Bundle }

// AllocMode selects where a Map's nodes come from; see Config.Alloc.
type AllocMode = core.AllocMode

// Allocation modes.
const (
	// AllocGC allocates everything through the Go runtime (the default).
	// Retired memory is dropped for the collector.
	AllocGC = core.AllocGC
	// AllocPool recycles the nodes an EBR-RQ map's epoch manager proves
	// unreachable: retire -> limbo -> per-thread free list -> next Insert.
	// On vCAS and Bundle maps it is accepted and has no effect (see
	// Config.Alloc).
	AllocPool = core.AllocPool
)

// Config parameterizes New.
type Config struct {
	// Source selects the timestamp implementation (default Logical):
	// Logical, TSC, Monotonic or Adaptive. Figure 1's other TSC reads
	// are timestamp sources only (NewTimestampSource).
	Source SourceKind
	// MaxThreads bounds concurrent thread handles (256 when zero; a
	// negative value is a *ConfigError). A durable map keeps one of them
	// for replay and checkpoints, so with Durability set a MaxThreads of 1,
	// which would leave callers none, is a *ConfigError too.
	MaxThreads int
	// Metrics, when non-nil, receives operation counts, latency
	// histograms, timestamp-source stats and reclamation counters from
	// the constructed Map. Nil (the default) leaves the hot paths
	// uninstrumented: the only cost is one pointer test per operation.
	// A registry may be shared by several Maps; counters then aggregate.
	// Each Map attaches once, when it is built: the structure and source
	// labels are the last attached Map's, the pool and WAL blocks show once
	// any attached Map feeds them, and the shard table grows to the widest
	// attached sharded Map: shard i counts every attached Map's shard i.
	Metrics *Metrics
	// Trace, when non-nil, attaches a flight recorder to the constructed
	// Map: per-thread event rings of op completions plus per-phase
	// spans and counters (traversal, timestamp read, labeling, retries,
	// helping, lock waits, limbo scans) from the technique layers. Nil
	// (the default) keeps every instrumentation point at one pointer
	// test; see TestTraceDisabledNoAllocs.
	Trace *TraceConfig
	// Alloc selects the allocation mode for the Map's nodes (default
	// AllocGC). AllocPool on an EBR-RQ map routes node allocations through
	// per-thread free lists that epoch reclamation feeds, closing the
	// retire->reuse loop; pool hit/miss/recycle counters then appear on
	// Config.Metrics snapshots. vCAS and Bundle keep what they detach
	// reachable to in-flight snapshot readers, so nothing they publish is
	// ever proven free: on those maps AllocPool is accepted and has no
	// effect (they allocate through the GC, and their snapshots carry no
	// pool block), as Retention has none on EBR-RQ.
	Alloc AllocMode
	// Health wires a TSC health monitor into an Adaptive source: a fault
	// it records (FaultSeq moves) fails the source over, and it receives
	// switch telemetry (visible on its JSON snapshot / a /tschealth
	// endpoint). Ignored by non-Adaptive sources. A nil Health leaves an
	// Adaptive source pinned to hardware.
	Health *TSCHealth
	// Durability, when non-nil, makes the Map crash-safe: every
	// successful update is appended to a per-shard write-ahead log
	// (group-committed, CRC-protected), and Checkpoint and CheckpointAt
	// take snapshots of the whole map at single source timestamps with
	// writers running; nothing takes one on its own. Opening over a
	// non-empty directory recovers the durable state before the
	// constructor returns. The map keeps one of the MaxThreads handles
	// for itself. See Durability and DurableMap.
	Durability *Durability
	// Retention is the time-travel window in source ticks: version
	// history younger than Peek()-Retention is never pruned, so GetAt/
	// RangeQueryAt/ScanAt at timestamps inside the window always
	// resolve on history-retaining techniques (vCAS and Bundle). Reads
	// below the window return ErrTruncatedHistory. Zero (the default)
	// makes no retention promise: pruning behaves as before, and only
	// not-yet-pruned timestamps resolve. On EBR-RQ maps — which retain
	// no per-key version history and refuse time travel outright — the
	// field is accepted and has no effect: limbo nodes are released as
	// soon as no in-flight range query needs them, whatever the window.
	// Wider windows hold proportionally more memory on update-heavy
	// workloads: the version chains ARE the history. The window is
	// measured in ticks of the current source generation (an Adaptive
	// switch eventually expires prior-generation history; within the
	// window after a switch, pre-switch timestamps still resolve).
	Retention uint64
}

// TSCHealth monitors whether the hardware timestamp counter actually
// delivers monotonicity and cross-core agreement, and counts the faults
// an Adaptive source acts on; see internal/tsc.Health.
// Its String method renders a JSON snapshot for stats endpoints.
type TSCHealth = tsc.Health

// TSCHealthSnapshot is the exported point-in-time state of a TSCHealth.
type TSCHealthSnapshot = tsc.HealthSnapshot

// NewTSCHealth builds a health monitor for thread IDs in
// [0, maxThreads). Pass it in Config.Health and call its Sample from the
// workload; adaptive sources report their switches into it.
func NewTSCHealth(maxThreads int) *TSCHealth { return tsc.NewHealth(maxThreads) }

// TraceConfig switches on the flight recorder (Config.Trace). It has no
// knobs: each recording thread's ring keeps its newest
// trace.DefaultRingSize events; aggregates cover everything.
type TraceConfig struct{}

// Tracer is the flight recorder attached to a Map by Config.Trace; see
// package internal/obs/trace. Its String method renders the aggregate
// snapshot as JSON, so it can be registered on a stats endpoint.
type Tracer = trace.Recorder

// TraceSnapshot is the exported point-in-time state of a Map's flight
// recorder; it marshals to stable JSON.
type TraceSnapshot = trace.Snapshot

// Metrics collects operation, timestamp-source and reclamation
// statistics from Maps constructed with Config.Metrics set. Snapshot
// (or String, which returns JSON) exports the current state; see
// package internal/obs for the counter semantics.
type Metrics = obs.Registry

// MetricsSnapshot is the exported point-in-time state of a Metrics
// registry; it marshals to stable JSON.
type MetricsSnapshot = obs.Snapshot

// NewMetrics builds an empty metrics registry for Config.Metrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Map is a concurrent ordered uint64->uint64 map with linearizable range
// queries. All operations take the calling goroutine's Thread handle.
type Map interface {
	// RegisterThread allocates a handle; one per goroutine.
	RegisterThread() (*Thread, error)
	// Insert adds key; false if present.
	Insert(th *Thread, key, val uint64) bool
	// Delete removes key; false if absent.
	Delete(th *Thread, key uint64) bool
	// Contains reports presence.
	Contains(th *Thread, key uint64) bool
	// Get returns the value at key.
	Get(th *Thread, key uint64) (uint64, bool)
	// RangeQuery appends all pairs with lo <= key <= hi from one
	// linearizable snapshot to buf, in ascending key order, and returns
	// it. An empty interval (hi < lo) returns buf unchanged without
	// taking a snapshot.
	RangeQuery(th *Thread, lo, hi uint64, buf []KV) []KV
	// Scan streams the same snapshot to fn in ascending key order;
	// returning false stops early. On every technique Scan first
	// collects the whole range into a fresh buffer, as RangeQuery does,
	// and only then calls fn, so early exit saves callbacks, not
	// collection. An empty interval (hi < lo) never calls fn.
	Scan(th *Thread, lo, hi uint64, fn func(KV) bool)
	// Now returns a timestamp capturing the present: every update that
	// completes after Now returns labels strictly later (up to the
	// hardware-tie corner the paper accepts for TSC, where a concurrent
	// update may tie and is then included at that instant). Pass it to
	// GetAt/RangeQueryAt/ScanAt — immediately or much later — to read
	// the map as of this moment.
	Now() uint64
	// GetAt reads key as of timestamp ts: the value the newest version
	// labeled <= ts holds, or ok=false if the key was absent at ts. On
	// techniques without version history (EBR-RQ) it returns
	// ErrHistoryUnsupported; for ts older than retained history,
	// ErrTruncatedHistory; for ts ahead of the source,
	// ErrFutureTimestamp. See Config.Retention.
	GetAt(th *Thread, key, ts uint64) (uint64, bool, error)
	// RangeQueryAt is RangeQuery against the snapshot at a caller-
	// chosen past timestamp ts, with GetAt's error semantics. All
	// returned pairs are from the single instant ts, even across
	// shards, and in ascending key order.
	RangeQueryAt(th *Thread, lo, hi, ts uint64, buf []KV) ([]KV, error)
	// ScanAt streams the snapshot at ts to fn in ascending key order;
	// returning false stops early. Like Scan it collects the whole range
	// before the first call to fn. Error semantics as GetAt; fn is
	// never called when an error is returned.
	ScanAt(th *Thread, lo, hi, ts uint64, fn func(KV) bool) error
	// Len counts keys; quiescent use only. On the way it drains, and
	// cuts every vCAS or Bundle history edge at a fresh trim bound,
	// publishing the time-travel prune watermark.
	Len() int
	// Drain eagerly releases the EBR-RQ limbo lists retained for
	// in-flight readers; it is safe beside operations. vCAS and Bundle
	// history is cut by the writers' batched flushes and by Len.
	Drain()
	// Structure and Technique identify the composition.
	Structure() Structure
	Technique() Technique
	// Source reports the requested timestamp kind.
	Source() SourceKind
	// SourceActual reports the kind actually serving timestamp reads
	// right now. It differs from Source when a hardware kind fell back
	// to the monotonic clock on an unsupported host, and for an Adaptive
	// source it is live: Logical while failed over, the hardware kind
	// otherwise.
	SourceActual() SourceKind
	// Tracer returns the flight recorder attached via Config.Trace, or
	// nil when tracing is disabled.
	Tracer() *Tracer
	// TraceSnapshot exports the flight recorder's current state (the
	// zero snapshot when tracing is disabled). events selects whether
	// the decoded per-thread event rings are included alongside the
	// aggregates.
	TraceSnapshot(events bool) TraceSnapshot
}

// MaxKey is the largest key storable in every Map (a few top values are
// reserved for sentinels across the structures).
const MaxKey = ^uint64(0) - 8

// Now returns the hardware timestamp via the paper's Listing-1 sequence
// (RDTSCP;LFENCE), falling back to a monotonic clock off amd64.
func Now() uint64 { return tsc.ReadFenced() }

// TimestampSource is the paper's drop-in timestamp API: Advance obtains
// a new timestamp (logical: fetch-and-add; hardware: a read) and Peek
// reads the current one. See core.Source for the full contract.
type TimestampSource = core.Source

// NewTimestampSource builds a timestamp source of the given kind.
func NewTimestampSource(k SourceKind) TimestampSource { return core.New(k) }

// HardwareTimestampSupported reports whether this host has RDTSCP and an
// invariant TSC, the property required to compare timestamps across cores:
// exactly when a TSC source reads the hardware rather than the monotonic
// clock.
func HardwareTimestampSupported() bool { return tsc.Supported() }

// ConfigError is the error New and NewSharded return for a
// Config or an argument they cannot honour; errors.As against it tells a
// misconfiguration from an unsupported (structure, technique, source)
// combination or an I/O error.
type ConfigError struct {
	Field  string // the Config field or constructor argument at fault, e.g. "Alloc"
	Reason string
}

func (e *ConfigError) Error() string { return "tscds: invalid " + e.Field + ": " + e.Reason }

// validate rejects the Config values that would otherwise misbehave
// quietly (an unknown Alloc ran as AllocGC under its bogus name) or from
// deep inside construction (an unknown Source panics in core.NewSource, a
// BST over more threads than its update words can name panics in
// lfbst.New).
func validate(s Structure, cfg Config) error {
	switch cfg.Source {
	case Logical, TSC, Monotonic, Adaptive:
	default:
		return &ConfigError{"Source", fmt.Sprintf("kind %d (%v) is not Logical, TSC, Monotonic or Adaptive", int(cfg.Source), cfg.Source)}
	}
	if cfg.MaxThreads < 0 {
		return &ConfigError{"MaxThreads", fmt.Sprintf("%d is negative", cfg.MaxThreads)}
	}
	if s == BST && cfg.MaxThreads > lfbst.MaxThreads {
		return &ConfigError{"MaxThreads", fmt.Sprintf("%d is more than the %d thread slots a BST can name", cfg.MaxThreads, lfbst.MaxThreads)}
	}
	if cfg.Alloc != AllocGC && cfg.Alloc != AllocPool {
		return &ConfigError{"Alloc", fmt.Sprintf("unknown mode %d", int(cfg.Alloc))}
	}
	if cfg.Durability != nil && cfg.Durability.Dir == "" {
		return &ConfigError{"Durability", "Dir is required"}
	}
	if cfg.Durability != nil && cfg.MaxThreads == 1 {
		return &ConfigError{"MaxThreads", "1 leaves no handle for callers: a durable map keeps one for itself"}
	}
	return nil
}

// New builds a Map from a (structure, technique, source) combination,
// rejecting combinations the paper shows are unsupported.
func New(s Structure, t Technique, cfg Config) (Map, error) {
	w := &wrap{}
	if err := w.init(s, t, cfg, 0); err != nil {
		return nil, err
	}
	return w, nil
}

// init is the constructor New and NewSharded share: validate cfg, build
// the source, the thread registry and the hooks, attach to cfg.Metrics,
// build the parts — (s, t) structures wired at construction — and the
// reader of every range-shaped read (the one part's own when flat, the
// fan-out when sharded), then arm durability, one WAL stream per part.
// shards is 0 for a flat map, which has one part.
func (w *wrap) init(s Structure, t Technique, cfg Config, shards int) error {
	if err := validate(s, cfg); err != nil {
		return err
	}
	reg := core.NewRegistry(cfg.MaxThreads)
	var st *obs.SourceStats
	if cfg.Metrics != nil {
		st = &cfg.Metrics.Source
	}
	src := core.NewSource(cfg.Source, cfg.Health, st)
	// GC and pool counters aggregate across parts, and the one retention
	// watermark and the one recorder are shared like the source: a single
	// prune intent covers every part's truncation, one CheckAt validates a
	// cross-part historical bound, and a sampled operation records its
	// phases in whichever part runs them.
	h := core.Hooks{Alloc: cfg.Alloc, ReadBound: core.NewReadBound(src, cfg.Retention)}
	if cfg.Trace != nil {
		h.Trace = trace.NewRecorder(reg.Cap(), trace.DefaultRingSize)
	}
	var stats []*obs.ShardStats
	if mt := cfg.Metrics; mt != nil {
		tsc.TelemetryClock() // calibrated here, not in the first timed operation
		h.GC, h.PoolStats = &mt.GC, &mt.Pool
		l := obs.Labels{Structure: s.String() + "/" + t.String(), Source: cfg.Source.String(),
			Actual: func() string { return core.Actual(src).String() }}
		if cfg.Alloc != AllocGC && !t.keepsHistory() {
			l.Alloc = cfg.Alloc.String()
		}
		if d := cfg.Durability; d != nil {
			l.WAL = "sync"
			if d.SyncEvery > 1 {
				l.WAL = fmt.Sprintf("batched(%d)", d.SyncEvery)
			}
		}
		stats = mt.Attach(l, shards)
	}
	ms := make([]inner, max(shards, 1))
	readers := make([]*core.Reader, len(ms))
	for i := range ms {
		m, err := buildInner(s, t, cfg.Source, src, reg, h)
		if err != nil {
			return err
		}
		ms[i], readers[i] = m, m.Reader()
	}
	rd := readers[0]
	if shards > 0 {
		rd = core.NewFanout(readers, stats)
	}
	*w = wrap{parts: ms, stats: stats, rd: rd, reg: reg, s: s, t: t, srcImpl: src, obs: cfg.Metrics, tr: h.Trace}
	if cfg.Durability != nil {
		return w.enableDurability(cfg)
	}
	return nil
}

// buildInner constructs the internal structure for one (structure,
// technique) pair over src and reg, wired to h. Every structure stores
// every key up to MaxKey as it is. kind is reported in errors only.
func buildInner(s Structure, t Technique, kind SourceKind, src core.Source, reg *core.Registry, h core.Hooks) (inner, error) {
	variant := ebrrq.LockBased
	if t == EBRRQLockFree {
		variant = ebrrq.LockFree
	}
	ebr := t == EBRRQ || t == EBRRQLockFree
	var m inner
	var err error
	switch {
	case s == BST && t == VCAS:
		m = lfbst.New(src, reg, h)
	case s == BST && ebr:
		m, err = lfbst.NewEBR(src, reg, variant, h)
	case s == Citrus && t == VCAS:
		m = citrus.NewVcas(src, reg, h)
	case s == Citrus && t == Bundle:
		m = citrus.NewBundle(src, reg, h)
	case s == Citrus && ebr:
		m, err = citrus.NewEBR(src, reg, variant, h)
	case s == SkipList && t == Bundle:
		m = skiplist.New(src, reg, h)
	case s == SkipList && t == VCAS:
		m = skiplist.NewVcas(src, reg, h)
	case s == SkipList && ebr:
		m, err = skiplist.NewEBR(src, reg, variant, h)
	case s == LazyList && t == VCAS:
		m = skiplist.NewLazyVcas(src, reg, h)
	case s == LazyList && t == Bundle:
		m = skiplist.NewLazyBundle(src, reg, h)
	default:
		return nil, fmt.Errorf("tscds: unsupported combination %v/%v", s, t)
	}
	if err != nil {
		return nil, fmt.Errorf("tscds: %v/%v with %v source: %w", s, t, kind, err)
	}
	return m, nil
}

// inner is the facade's contract with a structure variant, one part of a
// map, built with its sinks (buildInner, whose assignments fail the build
// for a variant that lacks a piece of it): point operations, the shape walk
// and the snapshot-read protocol every range-shaped read goes through.
type inner interface {
	Insert(th *core.Thread, key, val uint64) bool
	Delete(th *core.Thread, key uint64) bool
	Get(th *core.Thread, key uint64) (uint64, bool)
	// Shape walks the part, cutting every history edge it meets at a
	// fresh trim bound: it counts the keys, measures the depth (the
	// deepest leaf or node of a tree, a list's levels in use) and names
	// the first broken property of the frame, its history chains or its
	// limbo lists. Quiescent use only.
	Shape() (n, depth int, err error)
	// Drain eagerly releases what deletes hold back for range queries
	// (EBR-RQ's limbo lists).
	Drain()
	// Reader is the variant's snapshot-read protocol, carrying its bound
	// rule and its collect-at-bound walk.
	Reader() *core.Reader
}

// wrap adapts internal structures to Map: a flat map is one part, a
// sharded one a part per shard, and a user key is its part's key. obs and
// tr, when non-nil, receive per-operation counts/latencies and
// flight-record events, timed by the process's telemetry clock
// (tsc.TelemetryClock); each public method pays only nil tests when they
// are unset. log, when non-nil, is the write-ahead log with one stream per
// part (Config.Durability). Every other fact is read from the layer that
// owns it: the source kind from srcImpl, what recovery found from log.
type wrap struct {
	parts   []inner
	stats   []*obs.ShardStats // per-part routing counts; nil unless sharded with metrics
	rd      *core.Reader      // every range-shaped read, across every part
	reg     *core.Registry
	s       Structure
	t       Technique
	srcImpl core.Source // the constructed source
	obs     *obs.Registry
	tr      *trace.Recorder

	log   *wal.Log
	logTh *core.Thread // replay and checkpoint handle
}

func (w *wrap) RegisterThread() (*Thread, error) { return w.reg.Register() }

// start returns the start, a telemetry clock reading, of an operation on
// th when a sink times it, and 0 when none does: the registry times every
// operation, the recorder those it sampled (sampled is the caller's
// trace.Recorder.Sample, inlined into every operation). mark is the start
// again when the recorder sampled the operation, and 0 otherwise: the
// mark of a point operation's traverse span, which the facade records when
// the structure returns.
func (w *wrap) start(th *Thread, sampled bool) (start, mark uint64) {
	if sampled {
		start = w.tr.Begin(th.ID)
		return start, start
	}
	if w.obs != nil {
		return tsc.TelemetryClock().Now(), 0
	}
	return 0, 0
}

// observe records one operation of class c, begun at start (a nonzero
// w.start), into whichever sinks are wired; the recorder keeps it only if
// it sampled it. Its one clock reading ends the duration both sinks record
// and dates the recorder's event.
func (w *wrap) observe(th *Thread, c obs.OpClass, start uint64) {
	end := tsc.TelemetryClock().Now()
	dur := tsc.Elapsed(start, end)
	if w.obs != nil {
		w.obs.ObserveOp(th.ID, c, dur)
	}
	w.tr.OpEnd(th.ID, c, end, dur)
}

// Insert discards the durability acknowledgment; durable callers who
// need it use InsertDurable (a persistent log failure also surfaces on
// WALError).
func (w *wrap) Insert(th *Thread, key, val uint64) bool {
	ok, _ := w.update(th, wal.OpInsert, key, val)
	return ok
}

// Delete mirrors Insert; see DeleteDurable for the acknowledged form.
func (w *wrap) Delete(th *Thread, key uint64) bool {
	ok, _ := w.update(th, wal.OpDelete, key, 0)
	return ok
}

// update is every update of the facade, op selecting Insert or Delete (val
// is ignored for a delete): apply it to key's part, through the log when one
// is armed, and report it to whichever sinks are wired. The error is the
// durability acknowledgment.
func (w *wrap) update(th *Thread, op wal.OpKind, key, val uint64) (ok bool, err error) {
	if key > MaxKey {
		return false, nil
	}
	var start, mark uint64
	if w.obs != nil || w.tr != nil {
		start, mark = w.start(th, w.tr.Sample(th.ID))
	}
	if w.log != nil {
		ok, err = w.commit(th, op, key, val, mark)
	} else {
		_, m := w.part(th, key)
		ok = apply(m, th, op, key, val)
		w.tr.Span(th.ID, trace.PhaseTraverse, mark)
	}
	if start != 0 {
		w.observe(th, obs.OpUpdate, start)
	}
	return ok, err
}

// apply runs op on m at key (val is ignored for a delete) and reports
// whether it took effect.
func apply(m inner, th *Thread, op wal.OpKind, key, val uint64) bool {
	if op == wal.OpInsert {
		return m.Insert(th, key, val)
	}
	return m.Delete(th, key)
}

// part routes key to its part: the index, which is also its WAL stream, and
// the structure. A flat map takes its one part without a division; a
// sharded one partitions by core.PartOf and counts the operation on the
// part's stats.
func (w *wrap) part(th *Thread, key uint64) (int, inner) {
	i := 0
	if len(w.parts) > 1 {
		i = core.PartOf(key, len(w.parts))
	}
	if w.stats != nil {
		w.stats[i].Op(th.ID)
	}
	return i, w.parts[i]
}

func (w *wrap) Contains(th *Thread, key uint64) bool {
	_, ok := w.Get(th, key)
	return ok
}

func (w *wrap) Get(th *Thread, key uint64) (uint64, bool) {
	if key > MaxKey {
		return 0, false
	}
	_, m := w.part(th, key)
	if w.obs == nil && w.tr == nil {
		return m.Get(th, key)
	}
	start, mark := w.start(th, w.tr.Sample(th.ID))
	v, ok := m.Get(th, key)
	w.tr.Span(th.ID, trace.PhaseTraverse, mark)
	if start != 0 {
		w.observe(th, obs.OpContains, start)
	}
	return v, ok
}

func (w *wrap) RangeQuery(th *Thread, lo, hi uint64, buf []KV) []KV {
	buf, _ = w.read(th, obs.OpRange, lo, hi, 0, true, buf)
	return buf
}

// read is every range-shaped read of the facade, live (a fresh bound) or
// as of the past timestamp ts: clamp the interval, run the snapshot-read
// protocol, and report the operation to whichever sinks are wired as class
// c. An empty interval
// returns buf unchanged without taking or validating a bound; so does a
// refused ts.
func (w *wrap) read(th *Thread, c obs.OpClass, lo, hi, ts uint64, live bool, buf []KV) ([]KV, error) {
	if hi < lo || lo > MaxKey {
		return buf, nil
	}
	if hi > MaxKey {
		hi = MaxKey
	}
	var start uint64
	if w.obs != nil || w.tr != nil {
		start, _ = w.start(th, w.tr.Sample(th.ID))
	}
	buf, _, err := w.rd.Read(th, lo, hi, ts, live, buf)
	if start != 0 {
		w.observe(th, c, start)
	}
	if w.obs != nil && !live {
		switch {
		case err == nil:
			w.obs.History.Reads.Inc()
		case errors.Is(err, ErrTruncatedHistory):
			w.obs.History.Truncations.Inc()
		}
	}
	return buf, err
}

func (w *wrap) Scan(th *Thread, lo, hi uint64, fn func(KV) bool) {
	emit(w.RangeQuery(th, lo, hi, nil), fn)
}

// emit streams collected pairs, which a read returns in ascending key
// order, to fn until it returns false.
func emit(kvs []KV, fn func(KV) bool) {
	for _, kv := range kvs {
		if !fn(kv) {
			return
		}
	}
}

// Len counts keys across the parts. As a quiescent path it also drains
// retained limbo memory and cuts every history edge (inner.Shape), so
// long-running callers polling Len keep the heap bounded even when updates
// have ceased.
func (w *wrap) Len() int {
	w.Drain()
	n := 0
	for _, m := range w.parts {
		k, _, _ := m.Shape()
		n += k
	}
	return n
}

func (w *wrap) Drain() {
	for _, m := range w.parts {
		m.Drain()
	}
}

func (w *wrap) Structure() Structure { return w.s }
func (w *wrap) Technique() Technique { return w.t }
func (w *wrap) Source() SourceKind   { return w.srcImpl.Kind() }
func (w *wrap) Tracer() *Tracer      { return w.tr }

func (w *wrap) SourceActual() SourceKind { return core.Actual(w.srcImpl) }

func (w *wrap) TraceSnapshot(events bool) TraceSnapshot {
	return w.tr.Snapshot(events)
}
