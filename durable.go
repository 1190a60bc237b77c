package tscds

import (
	"errors"
	"fmt"

	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/obs/trace"
	"tscds/internal/wal"
)

// Durability opts a Map into crash-safe persistence (Config.Durability):
// a per-shard append-only write-ahead log on the update path plus
// whole-map snapshots (Checkpoint) taken at a single source timestamp —
// zero stop-the-world, writers keep running. Opening a Map over a
// non-empty Dir recovers the durable image (newest valid snapshot + WAL
// replay) before the constructor returns.
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
	// write outcome. Snapshots bound recovery time; the library takes
	// none on its own, so call it from your own ticker for periodic ones.
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
	// Close stops the durability layer: waits out a checkpoint in
	// flight, drains and fsyncs the log (clean shutdowns are fully
	// durable even with SyncEvery > 1) and closes the files. An update
	// concurrent with Close is either logged before the log closes or
	// refused with nothing applied; every update after Close is refused
	// (InsertDurable/DeleteDurable return wal.ErrClosed, Insert/Delete
	// false), and so is every checkpoint (Checkpoint/CheckpointAt return
	// wal.ErrClosed and write nothing). Close on a non-durable Map is a
	// no-op.
	Close() error
}

var _ DurableMap = (*wrap)(nil)
var _ DurableMap = (*ShardedMap)(nil)

// errNotDurable is returned by Checkpoint on Maps without durability.
var errNotDurable = errors.New("tscds: durability not enabled (set Config.Durability)")

// enableDurability arms cfg.Durability on w: open (and recover) the
// log and replay the surviving image into the still-traffic-free
// structures. The WAL has one stream per part, split by the same blocks
// (core.PartOf through w.part), and each stream is ordered by its Commit
// lock.
func (w *wrap) enableDurability(cfg Config) error {
	d := cfg.Durability
	var stats *obs.WALStats
	if cfg.Metrics != nil {
		stats = &cfg.Metrics.WAL
	}
	log, recov, err := wal.Open(wal.Options{
		Dir:       d.Dir,
		Shards:    len(w.parts),
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

	// Replay the recovered image. Keys in the log and snapshot are the
	// user keys every structure stores, so a log written by one structure
	// recovers into any other.
	for _, p := range recov.Pairs {
		if p.Key <= MaxKey {
			_, m := w.part(th, p.Key)
			m.Insert(th, p.Key, p.Val)
		}
	}
	for _, r := range recov.Replay {
		if r.Key <= MaxKey {
			_, m := w.part(th, r.Key)
			apply(m, th, r.Op, r.Key, r.Val)
		}
	}
	w.log, w.logTh = log, th
	return nil
}

// commit is the durable update path: the log's Commit applies, stamps
// and buffers under the lock of key's stream (so log order is
// linearization order), then waits for the acknowledgment with the lock
// released (so concurrent updaters share the fsync). op selects Insert or
// Delete (val is ignored for a delete). Failed in-memory ops log nothing —
// per key the log holds only effective updates, which is what makes
// redundant replay over a snapshot converge. After Close the update is
// refused before it touches the map: applied, it would be lost on reopen.
// start is the update's traverse mark (see wrap.start), ended when apply
// returns.
func (w *wrap) commit(th *core.Thread, op wal.OpKind, key, val, start uint64) (bool, error) {
	i, m := w.part(th, key)
	var mark uint64 // 0, which Span ignores, unless apply took effect
	ok, err := w.log.Commit(i, func() (wal.Record, bool) {
		applied := apply(m, th, op, key, val)
		w.tr.Span(th.ID, trace.PhaseTraverse, start)
		if !applied {
			return wal.Record{}, false
		}
		mark = w.tr.Now(th.ID)
		return wal.Record{TS: w.srcImpl.Peek(), Op: op, Key: key, Val: val}, true
	})
	w.tr.Span(th.ID, trace.PhaseWALAppend, mark)
	return ok, err
}

// checkpoint is one snapshot flush, sequenced by the log: collect the
// whole map at a single bound with writers running — a fresh one when
// live, else the past timestamp ts through the retained version history
// GetAt reads — in key order. The log writes the collected buffer as it
// is and prunes the segments the bound covers; newer records stay, so
// replay over a historical snapshot still converges to the log's final
// state. A map without a log refuses first, then a past ts on a technique
// that keeps no history.
func (w *wrap) checkpoint(ts uint64, live bool) error {
	switch {
	case w.log == nil:
		return errNotDurable
	case !live && !w.t.keepsHistory():
		return ErrHistoryUnsupported
	}
	mark := w.tr.SharedNow()
	err := w.log.Checkpoint(func(buf []wal.Pair) ([]wal.Pair, uint64, error) {
		return w.rd.Read(w.logTh, 0, MaxKey, ts, live, buf)
	})
	w.tr.SharedSpan(trace.PhaseSnapshotFlush, mark)
	return err
}

// InsertDurable implements DurableMap.
func (w *wrap) InsertDurable(th *Thread, key, val uint64) (bool, error) {
	return w.update(th, wal.OpInsert, key, val)
}

// DeleteDurable implements DurableMap.
func (w *wrap) DeleteDurable(th *Thread, key uint64) (bool, error) {
	return w.update(th, wal.OpDelete, key, 0)
}

// Checkpoint implements DurableMap.
func (w *wrap) Checkpoint() error { return w.checkpoint(0, true) }

// CheckpointAt implements DurableMap.
func (w *wrap) CheckpointAt(ts uint64) error { return w.checkpoint(ts, false) }

// WALError implements DurableMap.
func (w *wrap) WALError() error {
	if w.log == nil {
		return nil
	}
	return w.log.Err()
}

// LastRecovery implements DurableMap; the zero value on a non-durable Map.
func (w *wrap) LastRecovery() RecoveryStats {
	if w.log == nil {
		return RecoveryStats{}
	}
	return w.log.Recovery()
}

// Close implements DurableMap: close the log, then release the durability
// handle (Release is idempotent), on which no checkpoint collects after
// Log.Close.
func (w *wrap) Close() error {
	if w.log == nil {
		return nil
	}
	err := w.log.Close()
	w.logTh.Release()
	return err
}
