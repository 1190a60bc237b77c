package tscds

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/wal"
)

// Durability opts a Map into crash-safe persistence (Config.Durability):
// a per-shard append-only write-ahead log on the update path plus
// periodic whole-map snapshot flushes taken at a single source
// timestamp — zero stop-the-world, writers keep running. Opening a Map
// over a non-empty Dir recovers the durable image (newest valid
// snapshot + WAL replay) before the constructor returns.
type Durability struct {
	// Dir is the durability directory, created if absent. One Map per
	// directory.
	Dir string
	// SyncEvery selects the durability/throughput trade. <= 1 (the
	// default) is fully durable: an update is acknowledged only after
	// an fsync covering its record returns, with group commit sharing
	// each fsync across concurrent updaters. N > 1 acknowledges after
	// the buffered append and fsyncs every N records per shard — a
	// crash loses at most the last N acknowledged updates per shard.
	SyncEvery int
	// SnapshotEvery, when positive, flushes a snapshot periodically on
	// a background goroutine. Zero means snapshots happen only on
	// explicit Checkpoint calls. Snapshots bound recovery time and let
	// covered WAL segments be pruned.
	SnapshotEvery time.Duration
	// FS substitutes the file layer (fault-injection tests); nil means
	// the real filesystem.
	FS wal.FS
}

// RecoveryStats reports what recovery found when a durable Map was
// opened; see DurableMap.LastRecovery.
type RecoveryStats = wal.RecoveryStats

// DurableMap is the extended surface of Maps built with
// Config.Durability. Type-assert the Map from New to it, or use the
// methods directly on a *ShardedMap from NewSharded. The methods exist
// (as no-ops or errors) on non-durable Maps too.
type DurableMap interface {
	Map
	// InsertDurable is Insert returning additionally the durability
	// acknowledgment: a nil error means the update's WAL record is
	// covered per the SyncEvery policy. The boolean is the in-memory
	// result; (true, non-nil) means the update applied but its
	// durability is unknown (indeterminate after a log failure).
	InsertDurable(th *Thread, key, val uint64) (bool, error)
	// DeleteDurable is Delete with the durability acknowledgment.
	DeleteDurable(th *Thread, key uint64) (bool, error)
	// Checkpoint flushes a snapshot now (collect at one timestamp,
	// write atomically, prune covered WAL segments) and returns the
	// write outcome.
	Checkpoint() error
	// CheckpointAt flushes a snapshot of the map AS OF the past
	// timestamp ts, collected through the same retained version history
	// GetAt/RangeQueryAt read (so it needs a history-retaining
	// technique — vCAS or Bundle — and ts inside the retention window;
	// otherwise ErrHistoryUnsupported / ErrTruncatedHistory /
	// ErrFutureTimestamp). The log is rotated but only segments the
	// past bound covers are pruned, so recovery still converges to the
	// present state: the artifact doubles as a point-in-time export and
	// a valid recovery base.
	CheckpointAt(ts uint64) error
	// WALError reports the sticky durability error, if any: after a
	// persistent I/O failure the Map keeps serving from memory but
	// updates are no longer made durable (their acks carry the error).
	WALError() error
	// LastRecovery reports what recovery loaded when this Map opened
	// (the zero value for a fresh directory).
	LastRecovery() RecoveryStats
	// Close stops the durability layer: drains and fsyncs the log
	// (clean shutdowns are fully durable even with SyncEvery > 1),
	// stops the snapshot flusher, and closes the files. The Map must
	// be quiescent. Close on a non-durable Map is a no-op.
	Close() error
}

var _ DurableMap = (*wrap)(nil)
var _ DurableMap = (*ShardedMap)(nil)

// errNotDurable is returned by Checkpoint on Maps without durability.
var errNotDurable = errors.New("tscds: durability not enabled (set Config.Durability)")

// padMutex keeps per-shard WAL mutexes on separate cache-line pairs.
type padMutex struct {
	sync.Mutex
	_ [2*64 - 8]byte
}

// durable is the per-Map durability state hung off wrap.dur.
type durable struct {
	log   *wal.Log
	mus   []padMutex // one per WAL shard; serializes apply+stamp+append
	inner inner
	rd    *core.Reader // collects the whole map at one bound
	src   core.Source
	shift uint64
	tr    *trace.Recorder

	snapMu  sync.Mutex // serializes Checkpoint with the flusher
	snapBuf []core.KV

	th       *core.Thread // replay + flusher handle
	recovery RecoveryStats
	every    time.Duration
	stop     chan struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
}

// enableDurability arms cfg.Durability on w: open (and recover) the
// log, replay the surviving image into the still-traffic-free
// structure, and start the snapshot flusher. shards is the facade
// shard count; the WAL splits keys by the same blocks (core.PartOf), so
// each stream is ordered by the per-shard serialization update adds
// below.
func (w *wrap) enableDurability(cfg Config, shards int) error {
	d := cfg.Durability
	var stats *obs.WALStats
	if cfg.Metrics != nil {
		stats = &cfg.Metrics.WAL
		mode := "sync"
		if d.SyncEvery > 1 {
			mode = fmt.Sprintf("batched(%d)", d.SyncEvery)
		}
		cfg.Metrics.SetWALMode(mode)
	}
	log, recov, err := wal.Open(wal.Options{
		Dir:       d.Dir,
		Shards:    shards,
		SyncEvery: d.SyncEvery,
		FS:        d.FS,
		Stats:     stats,
	})
	if err != nil {
		return err
	}
	th, err := w.reg.Register()
	if err != nil {
		_ = log.Close()
		return fmt.Errorf("tscds: durability thread handle: %w", err)
	}

	// Replay the recovered image. Keys in the log and snapshot are
	// user keys; the facade's sentinel shift is reapplied here, so a
	// log written by one structure recovers into any other.
	for _, p := range recov.Pairs {
		if p.Key <= MaxKey {
			w.m.Insert(th, p.Key+w.shift, p.Val)
		}
	}
	for _, r := range recov.Replay {
		if r.Key <= MaxKey {
			apply(w.m, th, r.Op, r.Key+w.shift, r.Val)
		}
	}

	dd := &durable{
		log:      log,
		mus:      make([]padMutex, shards),
		inner:    w.m,
		rd:       w.rd,
		src:      w.srcImpl,
		shift:    w.shift,
		tr:       w.tr,
		th:       th,
		recovery: recov.Stats,
		every:    d.SnapshotEvery,
		stop:     make(chan struct{}),
	}
	w.dur = dd
	if dd.every > 0 {
		dd.wg.Add(1)
		go dd.flushLoop()
	}
	return nil
}

// update is the durable update path: apply, stamp and append under the
// WAL shard's mutex (so log order is linearization order), then commit
// outside it (so concurrent updaters share the fsync). op selects
// Insert or Delete (val is ignored for a delete). Failed in-memory ops
// log nothing — per key the log holds only effective updates, which is
// what makes redundant replay over a snapshot converge.
func (d *durable) update(th *core.Thread, op wal.OpKind, ikey, val uint64) (bool, error) {
	sh := core.PartOf(ikey, len(d.mus))
	var mark uint64
	if d.tr != nil {
		mark = d.tr.Now()
	}
	mu := &d.mus[sh]
	mu.Lock()
	if !apply(d.inner, th, op, ikey, val) {
		mu.Unlock()
		return false, nil
	}
	lsn, err := d.log.Append(sh, wal.Record{
		TS: d.src.Peek(), Op: op, Key: ikey - d.shift, Val: val,
	})
	mu.Unlock()
	if err == nil {
		err = d.log.WaitDurable(sh, lsn)
	}
	if d.tr != nil {
		d.tr.Span(th.ID, trace.PhaseWALAppend, mark)
	}
	return true, err
}

// checkpoint is one snapshot flush: collect the whole map at a single
// bound with writers running — a fresh one when live, else the past
// timestamp ts through the retained version history GetAt reads — in key
// order, write atomically, then prune the segments the bound covers. Newer
// records stay, so replay over a historical snapshot still converges to
// the log's final state.
func (d *durable) checkpoint(ts uint64, live bool) error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	mark := d.tr.Now()
	// Rotate first: every record buffered before this point lands in a
	// sealed segment whose maxTS the prune below can compare against
	// the snapshot bound.
	d.log.RotateAll()
	kvs, ts, err := d.rd.Read(d.th, d.shift, MaxKey+d.shift, ts, live, d.snapBuf[:0])
	d.snapBuf = kvs[:0]
	if err != nil {
		return err
	}
	pairs := make([]wal.Pair, len(kvs))
	for i, kv := range kvs {
		pairs[i] = wal.Pair{Key: kv.Key - d.shift, Val: kv.Val}
	}
	err = d.log.WriteSnapshot(ts, pairs)
	d.tr.SharedSpan(trace.PhaseSnapshotFlush, mark)
	if err != nil {
		return err
	}
	d.log.PruneUpTo(ts)
	return nil
}

// flushLoop drives periodic snapshots until Close.
func (d *durable) flushLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.every)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			_ = d.checkpoint(0, true) // failures counted in obs; next tick retries
		}
	}
}

// close stops the flusher and the log; idempotent.
func (d *durable) close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return d.log.Err()
	}
	close(d.stop)
	d.wg.Wait()
	err := d.log.Close()
	d.th.Release()
	return err
}

// --- wrap surface -----------------------------------------------------

// InsertDurable implements DurableMap.
func (w *wrap) InsertDurable(th *Thread, key, val uint64) (bool, error) {
	return w.update(th, wal.OpInsert, key, val)
}

// DeleteDurable implements DurableMap.
func (w *wrap) DeleteDurable(th *Thread, key uint64) (bool, error) {
	return w.update(th, wal.OpDelete, key, 0)
}

// Checkpoint implements DurableMap.
func (w *wrap) Checkpoint() error {
	if w.dur == nil {
		return errNotDurable
	}
	return w.dur.checkpoint(0, true)
}

// CheckpointAt implements DurableMap.
func (w *wrap) CheckpointAt(ts uint64) error {
	if w.dur == nil {
		return errNotDurable
	}
	if !w.hist {
		return ErrHistoryUnsupported
	}
	return w.dur.checkpoint(ts, false)
}

// WALError implements DurableMap.
func (w *wrap) WALError() error {
	if w.dur == nil {
		return nil
	}
	return w.dur.log.Err()
}

// LastRecovery implements DurableMap.
func (w *wrap) LastRecovery() RecoveryStats {
	if w.dur == nil {
		return RecoveryStats{}
	}
	return w.dur.recovery
}

// Close implements DurableMap.
func (w *wrap) Close() error {
	if w.dur == nil {
		return nil
	}
	return w.dur.close()
}
