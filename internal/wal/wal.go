package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tscds/internal/obs"
)

// ErrClosed is returned by Commit and Checkpoint on a closed log.
var ErrClosed = errors.New("wal: closed")

// Options parameterizes Open.
type Options struct {
	// Dir is the durability directory (created if absent).
	Dir string
	// Shards is the number of independent append streams; the facade
	// uses its shard count, and Commit's stream lock orders both the
	// stream's updates and its records.
	Shards int
	// SyncEvery controls the durability/throughput trade. <= 1 (the
	// default) acknowledges a commit only after an fsync covering it
	// returns — fully durable, with group commit amortizing the fsync
	// across concurrent committers. N > 1 acknowledges after write()
	// and fsyncs every N records per shard: a crash may lose up to the
	// last N acknowledged records per shard (bounded-loss mode, the
	// durability-cost axis of the bench's durability figure).
	SyncEvery int
	// FS substitutes the file layer (fault injection); nil means OS().
	FS FS
	// Stats, when non-nil, receives append/batch/fsync/retry/recovery
	// counters.
	Stats *obs.WALStats
}

// A write or fsync that fails is retried maxRetries times, backing off
// exponentially from retryBackoff; a still-failing op makes the log's
// error sticky.
const (
	maxRetries   = 4
	retryBackoff = time.Millisecond
)

// segMeta is pruning metadata for one no-longer-active segment file.
type segMeta struct {
	name  string
	runID uint64
	maxTS uint64 // largest record TS in the segment (0 when empty)
}

// Log is the open write side: per-shard segment writers with group
// commit, checkpoints and pruning. All methods are safe for concurrent
// use.
type Log struct {
	fs       FS
	dir      string
	runID    uint64
	sync     int
	stats    *obs.WALStats
	recovery RecoveryStats // what Open's recovery pass found

	shards []*shardLog
	// closed refuses Commit and Checkpoint from Close on. Close sets it
	// under snapMu before it takes each stream lock; Commit reads it
	// under its stream lock, Checkpoint under snapMu.
	closed atomic.Bool

	// snapMu sequences checkpoints with each other and with Close, and
	// guards the fields below.
	snapMu  sync.Mutex
	sealed  []segMeta // segments no longer written: prior runs' and rotated ones
	snaps   []string  // snapshot files on disk, name-sorted ascending
	snapBuf []Pair    // collect buffer, reused by every checkpoint
}

// shardLog is one shard's append stream. Commit applies an update and
// buffers its encoded record under mu; there is no committer goroutine.
// The first waiter that finds no flush in progress becomes the flusher:
// it takes the buffered batch, writes (and fsyncs) it with mu released,
// acknowledges it and wakes everyone. Commits arriving meanwhile buffer
// behind it and wait; one of them leads the next batch, which covers
// every record buffered while the previous one was in flight (group
// commit).
type shardLog struct {
	log *Log
	id  int

	mu       sync.Mutex
	ackd     *sync.Cond // waiters: a flush finished (acked, err, flushing changed)
	buf      []byte     // records appended since the last batch was taken
	spare    []byte     // the previous batch's buffer, reused for the next
	bufRecs  uint64
	bufMaxTS uint64
	appended uint64 // LSN of the newest buffered record
	acked    uint64 // LSN through which appends are acknowledged
	err      error  // sticky; set on persistent I/O failure
	flushing bool   // someone owns the flusher state below

	// Flusher-owned state: touched only between flushing going true and
	// going false again (or before the log is published by Open), so no
	// two writes or syncs on one file ever overlap.
	f         File
	seq       uint64
	name      string
	fileRecs  int
	fileMaxTS uint64
	sinceSync int
}

// Open scans dir, recovers the surviving image (newest valid snapshot
// + replayable records), assigns this run's generation, opens fresh
// active segments. The returned Recovered holds everything the caller
// must replay into its in-memory structure before directing traffic at
// the log.
func Open(opts Options) (*Log, *Recovered, error) {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.FS == nil {
		opts.FS = OS()
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{
		fs:    opts.FS,
		dir:   opts.Dir,
		sync:  opts.SyncEvery,
		stats: opts.Stats,
	}
	rec, maxRun, nextSeq, err := l.scan(opts.Shards)
	if err != nil {
		return nil, nil, err
	}
	l.runID = maxRun + 1
	l.recovery = rec.Stats

	l.shards = make([]*shardLog, 0, opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		sl := &shardLog{log: l, id: i, seq: nextSeq[i]}
		sl.ackd = sync.NewCond(&sl.mu)
		if err := sl.openSegment(); err != nil {
			l.closeSegments()
			return nil, nil, err
		}
		l.shards = append(l.shards, sl)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		l.closeSegments()
		return nil, nil, fmt.Errorf("wal: sync dir: %w", err)
	}
	return l, rec, nil
}

// Recovery reports what the recovery pass of Open found.
func (l *Log) Recovery() RecoveryStats { return l.recovery }

// closeSegments releases the segment files a failing Open had already
// created. Their headers may be on disk; recovery treats a header-only
// segment as empty.
func (l *Log) closeSegments() {
	for _, sl := range l.shards {
		_ = sl.f.Close()
	}
}

// RunID reports this run's generation.
func (l *Log) RunID() uint64 { return l.runID }

// Err returns the first sticky I/O error, or nil while the log is
// healthy. Once set, every Commit fails fast with it: the map keeps
// serving from memory but durability is broken.
func (l *Log) Err() error {
	for _, sl := range l.shards {
		sl.mu.Lock()
		err := sl.err
		sl.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Commit is one durable update on stream sh. It takes the stream lock
// once and runs apply under it, so the stream's record order is the
// order its updates took effect in; apply performs the in-memory update
// and returns its record, or false when the update changed nothing and
// logs nothing. After Close, Commit refuses with ErrClosed without
// running apply. Otherwise Commit buffers the record and waits for its
// acknowledgment as Options.SyncEvery says: it writes (and fsyncs) the
// buffered batch itself unless a flush is in progress, in which case it
// waits and is covered by that flush or leads (or follows) the next. A
// record acknowledged before a later failure still reports success; once
// the log's error is sticky apply still runs and Commit returns (true,
// the error). apply runs under the stream lock, so it must not call
// back into the log.
func (l *Log) Commit(sh int, apply func() (Record, bool)) (bool, error) {
	sl := l.shards[sh]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if l.closed.Load() {
		return false, ErrClosed
	}
	r, ok := apply()
	if !ok {
		return false, nil
	}
	if sl.err != nil {
		return true, sl.err
	}
	sl.buf = appendRecord(sl.buf, r)
	sl.bufRecs++
	sl.bufMaxTS = max(sl.bufMaxTS, r.TS)
	sl.appended++
	lsn := sl.appended
	if l.stats != nil {
		l.stats.Appends.Inc()
		l.stats.AppendedBytes.Add(recordSize)
	}
	for sl.acked < lsn && sl.err == nil {
		if sl.flushing {
			sl.ackd.Wait()
		} else {
			sl.flush(nil)
		}
	}
	if sl.acked >= lsn {
		return true, nil
	}
	return true, sl.err
}

// Checkpoint writes one snapshot and prunes what it covers. Under the
// snapshot lock it commits what every stream has buffered and rotates
// each onto a fresh segment, so every record committed before the call
// sits in a sealed segment; then it calls collect with the reused buffer
// for the whole map at one bound ts, sorted by key; writes that image
// atomically (temp file, fsync, rename, dir sync); and finally removes
// what the snapshot made redundant: every segment of a previous run (the
// replay that opened this run is contained in any snapshot this run
// writes), every sealed segment of this run whose records are all <= ts,
// and all but the two newest snapshots (the newest is authoritative; its
// predecessor is the fallback recovery uses if the newest turns out
// unreadable). A failed stream is not rotated, and removal failures
// are ignored (the next checkpoint retries them). After Close,
// Checkpoint returns ErrClosed without calling collect. collect runs
// under the snapshot lock, so it must not call Checkpoint or Close.
func (l *Log) Checkpoint(collect func(buf []Pair) ([]Pair, uint64, error)) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	for _, sl := range l.shards {
		sl.mu.Lock()
		sl.awaitFlusher()
		if sl.err == nil {
			sl.flush(sl.rotate)
		}
		sl.mu.Unlock()
	}
	kvs, ts, err := collect(l.snapBuf[:0])
	l.snapBuf = kvs[:0]
	if err != nil {
		return err
	}
	if err := l.writeSnapshot(ts, kvs); err != nil {
		return err
	}
	kept := l.sealed[:0]
	for _, m := range l.sealed {
		if (m.runID < l.runID || m.maxTS <= ts) && l.fs.Remove(filepath.Join(l.dir, m.name)) == nil {
			if l.stats != nil {
				l.stats.SegmentsPruned.Inc()
			}
			continue
		}
		kept = append(kept, m)
	}
	l.sealed = kept
	if n := len(l.snaps); n > 2 {
		keptS := l.snaps[:0]
		for i, name := range l.snaps {
			if i < n-2 && l.fs.Remove(filepath.Join(l.dir, name)) == nil {
				continue
			}
			keptS = append(keptS, name)
		}
		l.snaps = keptS
	}
	return nil
}

// writeSnapshot atomically writes the snapshot image kvs taken at bound
// ts. Caller holds snapMu.
func (l *Log) writeSnapshot(ts uint64, kvs []Pair) error {
	name := snapName(l.runID, ts)
	tmp := name + ".tmp"
	img := encodeSnapshot(l.runID, ts, kvs)
	err := l.writeSnapshotFile(tmp, name, img)
	if l.stats != nil {
		if err != nil {
			l.stats.SnapshotFailures.Inc()
		} else {
			l.stats.SnapshotFlushes.Inc()
			l.stats.SnapshotKeys.Add(uint64(len(kvs)))
			l.stats.SnapshotBytes.Add(uint64(len(img)))
		}
	}
	if err != nil {
		_ = l.fs.Remove(filepath.Join(l.dir, tmp))
		return err
	}
	l.snaps = append(l.snaps, name)
	return nil
}

func (l *Log) writeSnapshotFile(tmp, name string, img []byte) error {
	f, err := l.fs.Create(filepath.Join(l.dir, tmp))
	if err != nil {
		return fmt.Errorf("wal: create snapshot: %w", err)
	}
	if err := l.writeRetry(f, img); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := l.syncRetry(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close snapshot: %w", err)
	}
	if err := l.fs.Rename(filepath.Join(l.dir, tmp), filepath.Join(l.dir, name)); err != nil {
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Close waits out an in-flight Checkpoint, refuses every later Commit
// and Checkpoint with ErrClosed, commits and fsyncs what every stream
// has buffered (so a clean shutdown is fully durable even in
// bounded-loss mode) and closes the files. A Commit that took its stream
// lock before Close did is in that final batch. Close returns the sticky
// error, if any; a second Close waits for the first and returns it too.
func (l *Log) Close() error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	if !l.closed.Swap(true) {
		for _, sl := range l.shards {
			sl.mu.Lock()
			sl.awaitFlusher()
			if sl.err == nil {
				sl.flush(sl.seal)
			}
			sl.mu.Unlock()
		}
	}
	return l.Err()
}

// openSegment creates the next segment file for sl and writes its
// header. Called by Open (before the log is published) and by the
// flusher on rotation.
func (sl *shardLog) openSegment() error {
	sl.seq++
	sl.name = segName(sl.id, sl.seq)
	f, err := sl.log.fs.Create(filepath.Join(sl.log.dir, sl.name))
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", sl.name, err)
	}
	if err := sl.log.writeRetry(f, encodeSegHeader(sl.log.runID, sl.id, sl.seq)); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: write segment header %s: %w", sl.name, err)
	}
	sl.f = f
	sl.fileRecs = 0
	sl.fileMaxTS = 0
	sl.sinceSync = 0
	return nil
}

// awaitFlusher blocks until no flush is in progress. Caller holds mu.
func (sl *shardLog) awaitFlusher() {
	for sl.flushing {
		sl.ackd.Wait()
	}
}

// flush is one turn as the shard's exclusive flusher. The caller holds
// mu and has seen flushing false; flush returns with mu held again. It
// takes the buffered batch, and with mu released writes it, fsyncs per
// the durability mode and runs then (rotation or the final seal; nil on
// the commit path). The outcome is published under mu: the batch is
// acknowledged, or the failure becomes sticky and the file is closed —
// a record written before a failing then step stays unacknowledged,
// which errs on the safe side. Every waiter is woken either way.
func (sl *shardLog) flush(then func() error) {
	sl.flushing = true
	batch, nrecs, maxTS := sl.buf, sl.bufRecs, sl.bufMaxTS
	sl.buf, sl.bufRecs, sl.bufMaxTS = sl.spare[:0], 0, 0
	sl.mu.Unlock()

	err := sl.writeBatch(batch, nrecs, maxTS)
	if err == nil && then != nil {
		err = then()
	}
	if err != nil {
		if sl.log.stats != nil {
			sl.log.stats.Errors.Inc()
		}
		if sl.f != nil { // then may have closed it already
			_ = sl.f.Close()
			sl.f = nil
		}
	}

	sl.mu.Lock()
	sl.spare = batch
	if err != nil {
		sl.err = err
	} else {
		sl.acked += nrecs
	}
	sl.flushing = false
	sl.ackd.Broadcast()
}

// writeBatch appends one batch to the active segment and fsyncs it when
// the durability mode says so. Flusher only.
func (sl *shardLog) writeBatch(batch []byte, nrecs, maxTS uint64) error {
	if len(batch) == 0 {
		return nil
	}
	if err := sl.log.writeRetry(sl.f, batch); err != nil {
		return fmt.Errorf("wal: append %s: %w", sl.name, err)
	}
	if sl.log.stats != nil {
		sl.log.stats.Batches.Inc()
	}
	needSync := sl.log.sync <= 1
	if !needSync {
		sl.sinceSync += int(nrecs)
		needSync = sl.sinceSync >= sl.log.sync
	}
	if needSync {
		if err := sl.log.syncRetry(sl.f); err != nil {
			return fmt.Errorf("wal: fsync %s: %w", sl.name, err)
		}
		sl.sinceSync = 0
	}
	sl.fileRecs += int(nrecs)
	if maxTS > sl.fileMaxTS {
		sl.fileMaxTS = maxTS
	}
	return nil
}

// rotate seals the active segment and opens the next one. Flusher only,
// inside Checkpoint, so snapMu is held.
func (sl *shardLog) rotate() error {
	if sl.fileRecs == 0 {
		return nil // empty segment: nothing to seal
	}
	sealed := segMeta{name: sl.name, runID: sl.log.runID, maxTS: sl.fileMaxTS}
	if err := sl.seal(); err != nil {
		return err
	}
	if err := sl.openSegment(); err != nil {
		return err
	}
	if err := sl.log.fs.SyncDir(sl.log.dir); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	sl.log.sealed = append(sl.log.sealed, sealed)
	return nil
}

// seal fsyncs and closes the active segment; sl.f is nil from the Close
// on, whatever it returned, so no file is closed twice. Flusher only.
func (sl *shardLog) seal() error {
	if err := sl.log.syncRetry(sl.f); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", sl.name, err)
	}
	f := sl.f
	sl.f = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", sl.name, err)
	}
	return nil
}

// writeRetry writes b in full, retrying transient errors with
// exponential backoff and resuming after partial writes (the retried
// write continues at the failed offset, so a transient mid-batch error
// cannot duplicate bytes).
func (l *Log) writeRetry(f File, b []byte) error {
	off := 0
	var err error
	for attempt := 0; ; attempt++ {
		var n int
		n, err = f.Write(b[off:])
		off += n
		if off == len(b) && err == nil {
			return nil
		}
		if attempt >= maxRetries {
			break
		}
		if err != nil {
			if l.stats != nil {
				l.stats.Retries.Inc()
			}
			time.Sleep(retryBackoff << uint(attempt))
		}
	}
	if err == nil {
		err = errors.New("short write")
	}
	return err
}

// syncRetry fsyncs with the same retry/backoff policy.
func (l *Log) syncRetry(f File) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = f.Sync(); err == nil {
			if l.stats != nil {
				l.stats.Fsyncs.Inc()
			}
			return nil
		}
		if attempt >= maxRetries {
			return err
		}
		if l.stats != nil {
			l.stats.Retries.Inc()
		}
		time.Sleep(retryBackoff << uint(attempt))
	}
}
