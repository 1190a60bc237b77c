package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// ErrCorrupt marks a log image recovery refuses to use: a CRC failure
// in a segment's interior, a damaged segment that is not its shard's
// newest, or an unparseable record stream. Wrapped errors carry the
// file and offset. Torn tails — the damage a crash legitimately
// causes — are never ErrCorrupt; they are skipped and counted.
var ErrCorrupt = errors.New("wal: corrupt log")

// Recovered is the surviving durable image Open reconstructed: the
// newest valid snapshot plus every record it does not cover, in replay
// order. The caller replays Pairs (inserts) then Replay (in order)
// into a fresh structure before directing traffic at the log.
type Recovered struct {
	// Pairs is the snapshot content (empty when no snapshot survived).
	Pairs []Pair
	// Replay is every surviving record the snapshot does not cover, in
	// replay order: run generations ascending, and within a run each
	// shard's records in log (= linearization) order. Within one run
	// shards hold disjoint keys, so their relative order is free.
	Replay []Record
	// Stats summarizes what recovery found, skipped and refused.
	Stats RecoveryStats
}

// RecoveryStats is the accounting of one recovery pass.
type RecoveryStats struct {
	// SnapshotRun/SnapshotTS identify the snapshot recovery loaded
	// ((0,0) with SnapshotKeys 0 when none survived).
	SnapshotRun  uint64 `json:"snapshot_run"`
	SnapshotTS   uint64 `json:"snapshot_ts"`
	SnapshotKeys int    `json:"snapshot_keys"`
	// SnapshotsSkipped counts newer snapshot files recovery rejected
	// (bad CRC, short image) before finding a valid one.
	SnapshotsSkipped int `json:"snapshots_skipped,omitempty"`
	// Segments counts segment files scanned.
	Segments int `json:"segments"`
	// Replayed counts records returned for replay.
	Replayed int `json:"replayed"`
	// SkippedCovered counts intact records dropped because the
	// snapshot already covers them ((runID, ts) <= the snapshot cut).
	SkippedCovered int `json:"skipped_covered,omitempty"`
	// TornRecords/TornBytes count torn-tail damage skipped at the end
	// of active segments (including unreadably short segment headers).
	TornRecords int `json:"torn_records,omitempty"`
	TornBytes   int `json:"torn_bytes,omitempty"`
	// TmpsRemoved counts leftover snapshot temp files cleaned up.
	TmpsRemoved int `json:"tmps_removed,omitempty"`
}

// scannedSeg is one parsed segment file.
type scannedSeg struct {
	name  string
	shard int
	seq   uint64
	runID uint64
	recs  []Record
	maxTS uint64
}

// scan reads dir and reconstructs the surviving image. It returns the
// recovered state, the largest run generation seen (0 when the dir is
// fresh) and, per configured shard, the largest segment seq seen.
func (l *Log) scan(shards int) (*Recovered, uint64, []uint64, error) {
	rec := &Recovered{}
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("wal: read dir: %w", err)
	}
	sort.Strings(names)

	var segNames []string
	var snapNames []string
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".tmp"):
			if l.fs.Remove(filepath.Join(l.dir, name)) == nil {
				rec.Stats.TmpsRemoved++
			}
		case strings.HasPrefix(name, "wal-"):
			if _, _, ok := parseSegName(name); ok {
				segNames = append(segNames, name)
			}
		case strings.HasPrefix(name, "snap-"):
			if _, _, ok := parseSnapName(name); ok {
				snapNames = append(snapNames, name)
			}
		}
	}

	// Newest valid snapshot wins; invalid newer ones are skipped (the
	// prune policy keeps the predecessor around exactly for this).
	var maxRun uint64
	var snapRun, snapTS uint64
	haveSnap := false
	for i := len(snapNames) - 1; i >= 0; i-- {
		img, err := l.fs.ReadFile(filepath.Join(l.dir, snapNames[i]))
		if err != nil {
			return nil, 0, nil, fmt.Errorf("wal: read snapshot %s: %w", snapNames[i], err)
		}
		run, ts, kvs, ok := decodeSnapshot(img)
		if !ok {
			rec.Stats.SnapshotsSkipped++
			continue
		}
		snapRun, snapTS, haveSnap = run, ts, true
		rec.Pairs = kvs
		rec.Stats.SnapshotRun = run
		rec.Stats.SnapshotTS = ts
		rec.Stats.SnapshotKeys = len(kvs)
		break
	}
	for _, name := range snapNames {
		if run, _, ok := parseSnapName(name); ok && run > maxRun {
			maxRun = run
		}
	}
	l.snaps = snapNames

	// Determine each shard's newest segment: only there is a torn tail
	// legitimate crash damage; anywhere else it is corruption.
	newestSeq := map[int]uint64{}
	for _, name := range segNames {
		sh, seq, _ := parseSegName(name)
		if seq > newestSeq[sh] {
			newestSeq[sh] = seq
		}
	}

	var segs []scannedSeg
	for _, name := range segNames {
		sh, seq, _ := parseSegName(name)
		active := seq == newestSeq[sh]
		s, err := l.scanSegment(name, sh, seq, active, &rec.Stats)
		if err != nil {
			return nil, 0, nil, err
		}
		rec.Stats.Segments++
		if s == nil {
			continue // torn-empty active segment
		}
		if s.runID > maxRun {
			maxRun = s.runID
		}
		segs = append(segs, *s)
		l.sealed = append(l.sealed, segMeta{name: s.name, runID: s.runID, maxTS: s.maxTS})
	}

	// Replay order: run generations ascending (a later run only starts
	// after the earlier one's process died, so every run-N record
	// precedes every run-N+1 record), then shard, then seq.
	sort.SliceStable(segs, func(i, j int) bool {
		a, b := segs[i], segs[j]
		if a.runID != b.runID {
			return a.runID < b.runID
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.seq < b.seq
	})
	for _, s := range segs {
		for _, r := range s.recs {
			// The snapshot covers a record iff its run predates the
			// snapshot's (the snapshot writer replayed that whole run at
			// open) or it is the snapshot's own run with ts <= the bound.
			if haveSnap && (s.runID < snapRun || (s.runID == snapRun && r.TS <= snapTS)) {
				rec.Stats.SkippedCovered++
				continue
			}
			rec.Replay = append(rec.Replay, r)
		}
	}
	rec.Stats.Replayed = len(rec.Replay)
	if l.stats != nil {
		l.stats.RecoveredKeys.Add(uint64(len(rec.Pairs)))
		l.stats.RecoveredRecords.Add(uint64(len(rec.Replay)))
		l.stats.TornSkipped.Add(uint64(rec.Stats.TornRecords))
	}

	nextSeq := make([]uint64, shards)
	for sh, seq := range newestSeq {
		if sh >= 0 && sh < shards {
			nextSeq[sh] = seq
		}
	}
	return rec, maxRun, nextSeq, nil
}

// scanSegment decodes one segment file. A nil result (with nil error)
// means the segment was torn before its header completed and holds
// nothing. Torn tails are only tolerated when active (the shard's
// newest segment) — a sealed segment was fsynced before the next one
// was opened, so damage there is corruption, not crash residue.
func (l *Log) scanSegment(name string, shard int, seq uint64, active bool, st *RecoveryStats) (*scannedSeg, error) {
	b, err := l.fs.ReadFile(filepath.Join(l.dir, name))
	if err != nil {
		return nil, fmt.Errorf("wal: read segment %s: %w", name, err)
	}
	runID, hsh, hseq, ok := decodeSegHeader(b)
	if !ok {
		if active && len(b) < segHdrSize {
			st.TornRecords++
			st.TornBytes += len(b)
			return nil, nil
		}
		return nil, fmt.Errorf("%w: segment %s: bad header", ErrCorrupt, name)
	}
	if hsh != shard || hseq != seq {
		return nil, fmt.Errorf("%w: segment %s: header names shard %d seq %d", ErrCorrupt, name, hsh, hseq)
	}
	s := &scannedSeg{name: name, shard: shard, seq: seq, runID: runID}
	for off := segHdrSize; off < len(b); off += recordSize {
		if off+recordSize > len(b) {
			// Short final record: a torn tail on the active segment,
			// corruption anywhere else.
			if active {
				st.TornRecords++
				st.TornBytes += len(b) - off
				break
			}
			return nil, fmt.Errorf("%w: segment %s: short record at offset %d", ErrCorrupt, name, off)
		}
		r, ok := decodeRecord(b[off:])
		if !ok {
			// A CRC-failing record is a torn tail only when it is the
			// file's final record of the active segment — a torn write
			// persisted part of it. With intact bytes after it, the
			// damage is interior: refuse the log rather than silently
			// dropping acknowledged history.
			if active && off+recordSize == len(b) {
				st.TornRecords++
				st.TornBytes += recordSize
				break
			}
			return nil, fmt.Errorf("%w: segment %s: bad record CRC at offset %d", ErrCorrupt, name, off)
		}
		s.recs = append(s.recs, r)
		if r.TS > s.maxTS {
			s.maxTS = r.TS
		}
	}
	return s, nil
}
