package tscds

import (
	"errors"

	"tscds/internal/core"
	"tscds/internal/obs"
)

// This file implements MVCC time-travel reads: GetAt, RangeQueryAt and
// ScanAt read the map as of a caller-chosen past timestamp. The vCAS
// and Bundle techniques already retain, per key, every version an
// in-flight range query could need — the same walk that collects a
// range at a snapshot bound s collects it at ANY timestamp, provided
// truncation has not passed it. Time travel is therefore the live
// range-query machinery pointed at an old instant, plus a watermark
// (core.ReadBound) that makes "truncation passed it" a typed error
// instead of a silently-too-new value:
//
//   - A historical read is the snapshot-read protocol (core.Reader.Read;
//     DESIGN.md "Snapshot reads") with the bound validated against the
//     watermark instead of taken from the source. Pruners publish their
//     intended bound BEFORE scanning the announcement slots, so every
//     read either refuses or is protected by its reservation — never
//     racing a truncation past its ts.
//   - Config.Retention widens the watermark: versions younger than
//     Peek()-Retention are never offered to truncation, so reads
//     inside the window always resolve.
//
// EBR-RQ keeps limbo lists of deleted nodes, not per-key version
// chains: once an update overwrites a value or a key's liveness
// changes, the previous state is unreachable even though the node's
// memory lingers. Those cells refuse with ErrHistoryUnsupported.

// Typed errors for time-travel reads (aliases of the internal/core
// values, so errors.Is works against either package's name).
var (
	// ErrTruncatedHistory: the requested timestamp is older than
	// retained history — the version current at ts may already be
	// truncated, so the read refuses rather than serve a too-new value.
	ErrTruncatedHistory = core.ErrTruncatedHistory
	// ErrFutureTimestamp: the requested timestamp is ahead of the
	// source; no consistent snapshot exists there yet.
	ErrFutureTimestamp = core.ErrFutureTimestamp
	// ErrHistoryUnsupported: the map's technique (EBR-RQ) retains no
	// per-key version history, so no past timestamp can be served.
	ErrHistoryUnsupported = errors.New("tscds: technique retains no version history (time travel requires vCAS or Bundle)")
)

// Now returns a timestamp capturing the present moment; see Map.Now.
// Snapshot (not Peek) is deliberate: on a logical source it
// pre-increments the counter, so every later update labels strictly
// greater and a read at this timestamp observes exactly the current
// state.
func (w *wrap) Now() uint64 { return uint64(w.srcImpl.Snapshot()) }

// GetAt reads key as of ts; see Map.GetAt. It is a width-zero
// RangeQueryAt: the same announce/validate/walk protocol, the same
// boundary rule (a version labeled exactly ts is included, a delete
// labeled exactly ts excludes the key). It is a point read all the same,
// and the sinks count it as one (class contains).
func (w *wrap) GetAt(th *Thread, key, ts uint64) (uint64, bool, error) {
	if !w.t.keepsHistory() {
		return 0, false, ErrHistoryUnsupported
	}
	kvs, err := w.read(th, obs.OpContains, key, key, ts, false, th.PointBuf())
	if err != nil || len(kvs) == 0 {
		return 0, false, err
	}
	return kvs[0].Val, true, nil
}

// RangeQueryAt collects [lo, hi] as of ts; see Map.RangeQueryAt. As
// with RangeQuery, an empty interval returns buf unchanged without
// validating ts (no snapshot is taken, so there is nothing to refuse).
func (w *wrap) RangeQueryAt(th *Thread, lo, hi, ts uint64, buf []KV) ([]KV, error) {
	if !w.t.keepsHistory() {
		return buf, ErrHistoryUnsupported
	}
	return w.read(th, obs.OpRange, lo, hi, ts, false, buf)
}

// ScanAt streams the snapshot at ts in ascending key order; see
// Map.ScanAt.
func (w *wrap) ScanAt(th *Thread, lo, hi, ts uint64, fn func(KV) bool) error {
	kvs, err := w.RangeQueryAt(th, lo, hi, ts, nil)
	if err == nil {
		emit(kvs, fn)
	}
	return err
}
