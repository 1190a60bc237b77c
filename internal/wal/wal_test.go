package wal_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tscds/internal/obs"
	"tscds/internal/wal"
	"tscds/internal/wal/faultfs"
)

const (
	dir = "waldir"
	// On-disk sizes, fixed by the format (asserted in record_test.go).
	segHdrSize = 32
	recordSize = 29
)

func openLog(t *testing.T, fs wal.FS, shards, syncEvery int, stats *obs.WALStats) (*wal.Log, *wal.Recovered) {
	t.Helper()
	l, rec, err := wal.Open(wal.Options{
		Dir: dir, Shards: shards, SyncEvery: syncEvery,
		FS: fs, Stats: stats, RetryBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l, rec
}

// appendWait appends r to shard sh and blocks for its acknowledgment.
func appendWait(t *testing.T, l *wal.Log, sh int, r wal.Record) {
	t.Helper()
	lsn, err := l.Append(sh, r)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.WaitDurable(sh, lsn); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	l, rec := openLog(t, fs, 2, 1, nil)
	if got := l.RunID(); got != 1 {
		t.Fatalf("fresh RunID = %d, want 1", got)
	}
	if len(rec.Pairs) != 0 || len(rec.Replay) != 0 {
		t.Fatalf("fresh dir recovered %d pairs, %d records", len(rec.Pairs), len(rec.Replay))
	}
	appendWait(t, l, 0, wal.Record{TS: 1, Op: wal.OpInsert, Key: 2, Val: 100})
	appendWait(t, l, 1, wal.Record{TS: 2, Op: wal.OpInsert, Key: 3, Val: 101})
	appendWait(t, l, 0, wal.Record{TS: 3, Op: wal.OpDelete, Key: 2})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openLog(t, fs, 2, 1, nil)
	defer l2.Close()
	if got := l2.RunID(); got != 2 {
		t.Fatalf("second RunID = %d, want 2", got)
	}
	want := []wal.Record{
		{TS: 1, Op: wal.OpInsert, Key: 2, Val: 100},
		{TS: 3, Op: wal.OpDelete, Key: 2},
		{TS: 2, Op: wal.OpInsert, Key: 3, Val: 101},
	}
	if len(rec2.Replay) != len(want) {
		t.Fatalf("replayed %d records, want %d (%+v)", len(rec2.Replay), len(want), rec2.Replay)
	}
	for i, r := range want {
		if rec2.Replay[i] != r {
			t.Fatalf("replay[%d] = %+v, want %+v", i, rec2.Replay[i], r)
		}
	}
	if rec2.Stats.Segments != 2 || rec2.Stats.Replayed != 3 {
		t.Fatalf("stats = %+v", rec2.Stats)
	}
}

func TestSnapshotCutsCoveredRecords(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	l, _ := openLog(t, fs, 1, 1, nil)
	for ts := uint64(1); ts <= 4; ts++ {
		appendWait(t, l, 0, wal.Record{TS: ts, Op: wal.OpInsert, Key: ts, Val: ts * 10})
	}
	// Snapshot at bound 2 covers the first two records.
	if err := l.WriteSnapshot(2, []wal.Pair{{Key: 1, Val: 10}, {Key: 2, Val: 20}}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	l.Close()

	l2, rec := openLog(t, fs, 1, 1, nil)
	defer l2.Close()
	if len(rec.Pairs) != 2 || rec.Pairs[0] != (wal.Pair{Key: 1, Val: 10}) {
		t.Fatalf("snapshot pairs = %+v", rec.Pairs)
	}
	if len(rec.Replay) != 2 || rec.Replay[0].TS != 3 || rec.Replay[1].TS != 4 {
		t.Fatalf("replay = %+v, want TS 3 and 4 only", rec.Replay)
	}
	if rec.Stats.SkippedCovered != 2 || rec.Stats.SnapshotTS != 2 || rec.Stats.SnapshotRun != 1 {
		t.Fatalf("stats = %+v", rec.Stats)
	}
}

func TestSnapshotCoversWholeEarlierRuns(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	// Run 1 logs a high timestamp (hardware counters can run far ahead).
	l, _ := openLog(t, fs, 1, 1, nil)
	appendWait(t, l, 0, wal.Record{TS: 1 << 40, Op: wal.OpInsert, Key: 1, Val: 10})
	l.Close()

	// Run 2 restarts on a reset counter: its snapshot bound is tiny, yet
	// it must still cover run 1's records (they were replayed at open).
	l2, rec := openLog(t, fs, 1, 1, nil)
	if len(rec.Replay) != 1 {
		t.Fatalf("run 2 replay = %+v", rec.Replay)
	}
	appendWait(t, l2, 0, wal.Record{TS: 5, Op: wal.OpInsert, Key: 2, Val: 20})
	if err := l2.WriteSnapshot(5, []wal.Pair{{Key: 1, Val: 10}, {Key: 2, Val: 20}}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	l2.Close()

	l3, rec3 := openLog(t, fs, 1, 1, nil)
	defer l3.Close()
	if len(rec3.Replay) != 0 {
		t.Fatalf("run 3 replayed %+v; the run-2 snapshot should cover everything", rec3.Replay)
	}
	if len(rec3.Pairs) != 2 || rec3.Stats.SkippedCovered != 2 {
		t.Fatalf("run 3 stats = %+v", rec3.Stats)
	}
}

func TestTornTailSkipped(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	l, _ := openLog(t, fs, 1, 1, nil)
	for ts := uint64(1); ts <= 3; ts++ {
		appendWait(t, l, 0, wal.Record{TS: ts, Op: wal.OpInsert, Key: ts, Val: ts})
	}
	l.Close()

	// Tear the final record of the shard's newest segment.
	seg := dir + "/wal-0000-000000000001.log"
	if err := fs.Truncate(seg, segHdrSize+2*recordSize+7); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	l2, rec := openLog(t, fs, 1, 1, nil)
	defer l2.Close()
	if len(rec.Replay) != 2 {
		t.Fatalf("replay = %+v, want the 2 intact records", rec.Replay)
	}
	if rec.Stats.TornRecords != 1 || rec.Stats.TornBytes != 7 {
		t.Fatalf("stats = %+v", rec.Stats)
	}
}

func TestCorruptInteriorRefused(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	l, _ := openLog(t, fs, 1, 1, nil)
	for ts := uint64(1); ts <= 3; ts++ {
		appendWait(t, l, 0, wal.Record{TS: ts, Op: wal.OpInsert, Key: ts, Val: ts})
	}
	l.Close()

	// Flip a bit inside the FIRST record: it has intact records after
	// it, so this is interior damage no crash explains.
	seg := dir + "/wal-0000-000000000001.log"
	if err := fs.Corrupt(seg, segHdrSize+10); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	_, _, err := wal.Open(wal.Options{Dir: dir, Shards: 1, FS: fs})
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Open on corrupt interior = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "offset 32") || !strings.Contains(err.Error(), "wal-0000-000000000001.log") {
		t.Fatalf("corruption error lacks file/offset: %v", err)
	}
}

func TestSnapshotFallback(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	l, _ := openLog(t, fs, 1, 1, nil)
	if err := l.WriteSnapshot(5, []wal.Pair{{Key: 1, Val: 10}}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := l.WriteSnapshot(9, []wal.Pair{{Key: 1, Val: 10}, {Key: 2, Val: 20}}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	l.Close()

	// Damage the newest snapshot: recovery must fall back to its
	// predecessor, not fail and not trust the broken image.
	newest := dir + "/snap-0000000000000001-0000000000000009.dat"
	if err := fs.Corrupt(newest, 40); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	l2, rec := openLog(t, fs, 1, 1, nil)
	defer l2.Close()
	if rec.Stats.SnapshotsSkipped != 1 || rec.Stats.SnapshotTS != 5 || len(rec.Pairs) != 1 {
		t.Fatalf("fallback stats = %+v, pairs = %+v", rec.Stats, rec.Pairs)
	}
}

func TestRotateAndPrune(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	var stats obs.WALStats
	l, _ := openLog(t, fs, 1, 1, &stats)
	for ts := uint64(1); ts <= 3; ts++ {
		appendWait(t, l, 0, wal.Record{TS: ts, Op: wal.OpInsert, Key: ts, Val: ts})
	}
	l.RotateAll()
	// Rotation is synchronous: the next segment exists on return.
	if fs.Size(dir+"/wal-0000-000000000002.log") < 0 {
		t.Fatal("rotation did not produce a new segment")
	}
	if err := l.WriteSnapshot(3, []wal.Pair{{Key: 1, Val: 1}, {Key: 2, Val: 2}, {Key: 3, Val: 3}}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	l.PruneUpTo(3)
	if fs.Size(dir+"/wal-0000-000000000001.log") >= 0 {
		t.Fatal("sealed, fully-covered segment not pruned")
	}
	if stats.SegmentsPruned.Load() != 1 {
		t.Fatalf("SegmentsPruned = %d", stats.SegmentsPruned.Load())
	}
	appendWait(t, l, 0, wal.Record{TS: 4, Op: wal.OpInsert, Key: 4, Val: 4})
	l.Close()

	l2, rec := openLog(t, fs, 1, 1, nil)
	defer l2.Close()
	if len(rec.Pairs) != 3 || len(rec.Replay) != 1 || rec.Replay[0].TS != 4 {
		t.Fatalf("post-prune recovery: pairs %+v replay %+v", rec.Pairs, rec.Replay)
	}
}

func TestPruneKeepsTwoSnapshots(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	l, _ := openLog(t, fs, 1, 1, nil)
	for ts := uint64(1); ts <= 3; ts++ {
		if err := l.WriteSnapshot(ts, []wal.Pair{{Key: ts, Val: ts}}); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
	}
	l.PruneUpTo(3)
	l.Close()
	var snaps int
	for _, p := range fs.Paths() {
		if strings.Contains(p, "snap-") {
			snaps++
		}
	}
	if snaps != 2 {
		t.Fatalf("%d snapshots survive pruning, want 2 (newest + fallback): %v", snaps, fs.Paths())
	}
}

func TestBatchedModeCleanClose(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	var stats obs.WALStats
	l, _ := openLog(t, fs, 1, 64, &stats)
	for ts := uint64(1); ts <= 5; ts++ {
		appendWait(t, l, 0, wal.Record{TS: ts, Op: wal.OpInsert, Key: ts, Val: ts})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Bounded-loss mode must still be fully durable across a CLEAN
	// shutdown: Close fsyncs the tail.
	l2, rec := openLog(t, fs, 1, 64, nil)
	defer l2.Close()
	if len(rec.Replay) != 5 {
		t.Fatalf("replayed %d records after clean close, want 5", len(rec.Replay))
	}
}

func TestTransientWriteErrorRetried(t *testing.T) {
	// Ops 1-3 are segment setup (create, header, dir sync); op 4 is the
	// first batch write. One transient failure there must be invisible
	// to the appender.
	fs := faultfs.New(faultfs.Fault{AtOp: 4, Kind: faultfs.KindWriteErr})
	var stats obs.WALStats
	l, _ := openLog(t, fs, 1, 1, &stats)
	appendWait(t, l, 0, wal.Record{TS: 1, Op: wal.OpInsert, Key: 1, Val: 1})
	if err := l.Close(); err != nil {
		t.Fatalf("Close after transient error: %v", err)
	}
	if stats.Retries.Load() == 0 {
		t.Fatal("transient error did not count a retry")
	}
	l2, rec := openLog(t, fs, 1, 1, nil)
	defer l2.Close()
	if len(rec.Replay) != 1 {
		t.Fatalf("replayed %d records, want 1", len(rec.Replay))
	}
}

func TestPersistentErrorSticky(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{AtOp: 4, Kind: faultfs.KindENOSPC})
	var stats obs.WALStats
	l, _ := openLog(t, fs, 1, 1, &stats)
	lsn, err := l.Append(0, wal.Record{TS: 1, Op: wal.OpInsert, Key: 1, Val: 1})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.WaitDurable(0, lsn); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("WaitDurable under ENOSPC = %v, want injected error", err)
	}
	if l.Err() == nil {
		t.Fatal("persistent failure did not stick")
	}
	if _, err := l.Append(0, wal.Record{TS: 2, Op: wal.OpInsert, Key: 2, Val: 2}); err == nil {
		t.Fatal("Append after sticky failure succeeded")
	}
	if stats.Errors.Load() == 0 {
		t.Fatal("sticky failure not counted")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close after sticky failure returned nil")
	}
}

func TestOpenReadErrorCleanRetry(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	l, _ := openLog(t, fs, 1, 1, nil)
	appendWait(t, l, 0, wal.Record{TS: 1, Op: wal.OpInsert, Key: 1, Val: 1})
	l.Close()

	fs2 := faultfs.New(faultfs.Fault{AtOp: 1, Kind: faultfs.KindReadErr})
	// Rebuild the directory contents under the faulty fs.
	copyInto(t, fs, fs2)
	if _, _, err := wal.Open(wal.Options{Dir: dir, Shards: 1, FS: fs2}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Open under read fault = %v, want injected error", err)
	}
	l2, rec := openLog(t, fs2, 1, 1, nil)
	defer l2.Close()
	if len(rec.Replay) != 1 {
		t.Fatalf("retried Open replayed %d records, want 1", len(rec.Replay))
	}
}

// copyInto replays src's surviving files into dst.
func copyInto(t *testing.T, src, dst *faultfs.FS) {
	t.Helper()
	for _, p := range src.Paths() {
		b, err := src.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		f, err := dst.Create(p)
		if err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %s: %v", p, err)
		}
	}
}

// watchFS wraps a wal.FS and watches every file it creates: how many
// bytes were written and how many of them a successful Sync covered, and
// whether two Write/Sync calls on one file were ever in flight at once.
type watchFS struct {
	wal.FS
	mu       sync.Mutex
	files    map[string]*watchFile
	overlaps atomic.Int64
}

type watchFile struct {
	wal.File
	fs              *watchFS
	busy            atomic.Int32
	written, synced atomic.Int64
}

func (w *watchFS) Create(path string) (wal.File, error) {
	f, err := w.FS.Create(path)
	if err != nil {
		return nil, err
	}
	wf := &watchFile{File: f, fs: w}
	w.mu.Lock()
	if w.files == nil {
		w.files = map[string]*watchFile{}
	}
	w.files[path] = wf
	w.mu.Unlock()
	return wf, nil
}

func (w *watchFS) file(path string) *watchFile {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.files[path]
}

// enter marks one I/O call in flight, yielding inside it so that a
// second caller, if the log let one in, would get there.
func (f *watchFile) enter() {
	if f.busy.Add(1) != 1 {
		f.fs.overlaps.Add(1)
	}
	runtime.Gosched()
}

func (f *watchFile) Write(p []byte) (int, error) {
	f.enter()
	defer f.busy.Add(-1)
	n, err := f.File.Write(p)
	f.written.Add(int64(n))
	return n, err
}

func (f *watchFile) Sync() error {
	f.enter()
	defer f.busy.Add(-1)
	covered := f.written.Load()
	err := f.File.Sync()
	if err == nil {
		f.synced.Store(covered)
	}
	return err
}

// The commit has no goroutine of its own: whichever appender finds no
// flush in progress writes the batch. With N appenders per shard, in
// both durability modes: an acknowledged LSN is on the file (and, with
// SyncEvery 1, covered by a completed fsync) at the moment WaitDurable
// returns; no two Write/Sync calls on one file overlap; concurrent
// appenders share fsyncs; and neither Open nor Close changes the
// goroutine count.
func TestLeaderFollowerCommit(t *testing.T) {
	const shards, appenders, each = 2, 6, 200
	for _, syncEvery := range []int{1, 64} {
		fs := &watchFS{FS: faultfs.New(faultfs.Fault{})}
		var stats obs.WALStats
		before := runtime.NumGoroutine()
		l, _ := openLog(t, fs, shards, syncEvery, &stats)
		// (> rather than !=: a goroutine left over from an earlier test may
		// still be exiting, which can only lower the count.)
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("SyncEvery %d: Open raised the goroutine count %d -> %d", syncEvery, before, n)
		}
		segs := make([]*watchFile, shards)
		for sh := range segs {
			segs[sh] = fs.file(fmt.Sprintf("%s/wal-%04d-%012d.log", dir, sh, 1))
			if segs[sh] == nil {
				t.Fatalf("no first segment for shard %d", sh)
			}
		}
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				sh := a % shards
				for i := 0; i < each; i++ {
					lsn, err := l.Append(sh, wal.Record{TS: uint64(i + 1), Op: wal.OpInsert, Key: uint64(a), Val: uint64(i)})
					if err != nil {
						t.Errorf("Append: %v", err)
						return
					}
					if err := l.WaitDurable(sh, lsn); err != nil {
						t.Errorf("WaitDurable: %v", err)
						return
					}
					need := int64(segHdrSize + lsn*recordSize)
					if got := segs[sh].written.Load(); got < need {
						t.Errorf("SyncEvery %d shard %d: LSN %d acknowledged with %d bytes written, needs %d", syncEvery, sh, lsn, got, need)
					}
					if got := segs[sh].synced.Load(); syncEvery <= 1 && got < need {
						t.Errorf("shard %d: LSN %d acknowledged with %d bytes synced, needs %d", sh, lsn, got, need)
					}
				}
			}(a)
		}
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("SyncEvery %d: goroutine count %d after Close, %d before Open", syncEvery, n, before)
		}
		total := int64(segHdrSize + appenders/shards*each*recordSize)
		for sh, f := range segs {
			if w, s := f.written.Load(), f.synced.Load(); w != total || s != total {
				t.Fatalf("SyncEvery %d shard %d after Close: %d written, %d synced, want %d both", syncEvery, sh, w, s, total)
			}
		}
		if n := fs.overlaps.Load(); n != 0 {
			t.Fatalf("SyncEvery %d: %d overlapping Write/Sync calls on one file", syncEvery, n)
		}
		if a, f := stats.Appends.Load(), stats.Fsyncs.Load(); syncEvery <= 1 && f >= a {
			t.Fatalf("%d fsyncs for %d appends from %d concurrent appenders: no group commit", f, a, appenders)
		} else if syncEvery > 1 && 2*f >= a {
			t.Fatalf("SyncEvery %d: %d fsyncs for %d appends: batched mode did not amortize them", syncEvery, f, a)
		}
	}
}

// A segment file created for an earlier shard must not be leaked when a
// later shard's segment cannot be created.
func TestOpenClosesSegmentsOnFailure(t *testing.T) {
	// Ops 1-2 create shard 0's segment and write its header, op 3
	// creates shard 1's, whose header write then fails.
	inner := faultfs.New(faultfs.Fault{AtOp: 3, Kind: faultfs.KindENOSPC})
	fs := &closeCountFS{FS: inner}
	_, _, err := wal.Open(wal.Options{Dir: dir, Shards: 2, FS: fs, RetryBackoff: time.Microsecond})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Open = %v, want the injected error", err)
	}
	if fs.created.Load() != 2 || fs.closed.Load() != 2 {
		t.Fatalf("failed Open created %d files and closed %d, want 2 and 2", fs.created.Load(), fs.closed.Load())
	}
}

// A rotation that fails after sealing the old segment must not close the
// sealed file a second time on the flusher's error path.
func TestFailedRotationClosesEachFileOnce(t *testing.T) {
	inner := faultfs.New(faultfs.Fault{})
	fs := &closeCountFS{FS: inner}
	l, _, err := wal.Open(wal.Options{Dir: dir, Shards: 1, FS: fs, RetryBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(0, wal.Record{Op: wal.OpInsert, Key: 1, Val: 1, TS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(0, lsn); err != nil {
		t.Fatal(err)
	}
	// The seal's fsync and Close go through; the next segment's header
	// write does not.
	inner.Arm(faultfs.Fault{AtOp: inner.Ops() + 1, Kind: faultfs.KindENOSPC})
	l.RotateAll()
	if !errors.Is(l.Err(), faultfs.ErrInjected) {
		t.Fatalf("Err after the failed rotation = %v, want the injected error", l.Err())
	}
	_ = l.Close()
	if fs.created.Load() != 2 || fs.closed.Load() != 2 {
		t.Fatalf("created %d files, %d Close calls; want 2 and 2", fs.created.Load(), fs.closed.Load())
	}
}

type closeCountFS struct {
	wal.FS
	created, closed atomic.Int64
}

type closeCountFile struct {
	wal.File
	fs *closeCountFS
}

func (c *closeCountFS) Create(path string) (wal.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	c.created.Add(1)
	return &closeCountFile{File: f, fs: c}, nil
}

func (f *closeCountFile) Close() error {
	f.fs.closed.Add(1)
	return f.File.Close()
}
