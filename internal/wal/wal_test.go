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
		FS: fs, Stats: stats,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l, rec
}

// commit logs r on stream sh as an applied update and blocks for its
// acknowledgment.
func commit(t *testing.T, l *wal.Log, sh int, r wal.Record) {
	t.Helper()
	if _, err := l.Commit(sh, func() (wal.Record, bool) { return r, true }); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// image is a collect func that returns kvs at bound ts.
func image(ts uint64, kvs ...wal.Pair) func([]wal.Pair) ([]wal.Pair, uint64, error) {
	return func(buf []wal.Pair) ([]wal.Pair, uint64, error) { return append(buf, kvs...), ts, nil }
}

// checkpoint writes a snapshot of kvs at bound ts.
func checkpoint(t *testing.T, l *wal.Log, ts uint64, kvs ...wal.Pair) {
	t.Helper()
	if err := l.Checkpoint(image(ts, kvs...)); err != nil {
		t.Fatalf("Checkpoint: %v", err)
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
	commit(t, l, 0, wal.Record{TS: 1, Op: wal.OpInsert, Key: 2, Val: 100})
	commit(t, l, 1, wal.Record{TS: 2, Op: wal.OpInsert, Key: 3, Val: 101})
	commit(t, l, 0, wal.Record{TS: 3, Op: wal.OpDelete, Key: 2})
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
		commit(t, l, 0, wal.Record{TS: ts, Op: wal.OpInsert, Key: ts, Val: ts * 10})
	}
	// Snapshot at bound 2 covers the first two records.
	checkpoint(t, l, 2, wal.Pair{Key: 1, Val: 10}, wal.Pair{Key: 2, Val: 20})
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

// keepFS refuses every Remove: a checkpoint prunes nothing, so recovery
// sees every segment the run wrote.
type keepFS struct{ wal.FS }

func (keepFS) Remove(string) error { return errors.New("kept") }

func TestSnapshotCoversWholeEarlierRuns(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	// Run 1 logs a high timestamp (hardware counters can run far ahead).
	l, _ := openLog(t, fs, 1, 1, nil)
	commit(t, l, 0, wal.Record{TS: 1 << 40, Op: wal.OpInsert, Key: 1, Val: 10})
	l.Close()

	// Run 2 restarts on a reset counter: its snapshot bound is tiny, yet
	// it must still cover run 1's records (they were replayed at open).
	// Its checkpoint prunes nothing, so recovery itself must skip them.
	l2, rec := openLog(t, keepFS{fs}, 1, 1, nil)
	if len(rec.Replay) != 1 {
		t.Fatalf("run 2 replay = %+v", rec.Replay)
	}
	commit(t, l2, 0, wal.Record{TS: 5, Op: wal.OpInsert, Key: 2, Val: 20})
	checkpoint(t, l2, 5, wal.Pair{Key: 1, Val: 10}, wal.Pair{Key: 2, Val: 20})
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
		commit(t, l, 0, wal.Record{TS: ts, Op: wal.OpInsert, Key: ts, Val: ts})
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
		commit(t, l, 0, wal.Record{TS: ts, Op: wal.OpInsert, Key: ts, Val: ts})
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
	checkpoint(t, l, 5, wal.Pair{Key: 1, Val: 10})
	checkpoint(t, l, 9, wal.Pair{Key: 1, Val: 10}, wal.Pair{Key: 2, Val: 20})
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
		commit(t, l, 0, wal.Record{TS: ts, Op: wal.OpInsert, Key: ts, Val: ts})
	}
	// The checkpoint rotates before it collects: the next segment exists
	// when collect runs.
	err := l.Checkpoint(func(buf []wal.Pair) ([]wal.Pair, uint64, error) {
		if fs.Size(dir+"/wal-0000-000000000002.log") < 0 {
			t.Error("rotation did not produce a new segment before collect")
		}
		return image(3, wal.Pair{Key: 1, Val: 1}, wal.Pair{Key: 2, Val: 2}, wal.Pair{Key: 3, Val: 3})(buf)
	})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if fs.Size(dir+"/wal-0000-000000000001.log") >= 0 {
		t.Fatal("sealed, fully-covered segment not pruned")
	}
	if stats.SegmentsPruned.Load() != 1 {
		t.Fatalf("SegmentsPruned = %d", stats.SegmentsPruned.Load())
	}
	commit(t, l, 0, wal.Record{TS: 4, Op: wal.OpInsert, Key: 4, Val: 4})
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
		checkpoint(t, l, ts, wal.Pair{Key: ts, Val: ts})
	}
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
		commit(t, l, 0, wal.Record{TS: ts, Op: wal.OpInsert, Key: ts, Val: ts})
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
	commit(t, l, 0, wal.Record{TS: 1, Op: wal.OpInsert, Key: 1, Val: 1})
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
	if ok, err := l.Commit(0, func() (wal.Record, bool) {
		return wal.Record{TS: 1, Op: wal.OpInsert, Key: 1, Val: 1}, true
	}); !ok || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Commit under ENOSPC = %v, %v; want true and the injected error", ok, err)
	}
	if l.Err() == nil {
		t.Fatal("persistent failure did not stick")
	}
	// The map keeps serving from memory: the update still applies, and
	// its acknowledgment carries the sticky error.
	applied := false
	if ok, err := l.Commit(0, func() (wal.Record, bool) {
		applied = true
		return wal.Record{TS: 2, Op: wal.OpInsert, Key: 2, Val: 2}, true
	}); !ok || !applied || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Commit after sticky failure = %v, %v (applied %v); want it applied and the injected error", ok, err, applied)
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
	commit(t, l, 0, wal.Record{TS: 1, Op: wal.OpInsert, Key: 1, Val: 1})
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
	// beforeSync, when set, runs at the start of every Sync with the
	// bytes it will cover.
	beforeSync func(covered int64)
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
	if f.beforeSync != nil {
		f.beforeSync(covered)
	}
	err := f.File.Sync()
	if err == nil {
		f.synced.Store(covered)
	}
	return err
}

// The commit has no goroutine of its own: whichever committer finds no
// flush in progress writes the batch. With N committers per shard, in
// both durability modes: an acknowledged record is on the file (and,
// with SyncEvery 1, covered by a completed fsync) at the moment Commit
// returns; no two Write/Sync calls on one file overlap; concurrent
// committers share fsyncs; and neither Open nor Close changes the
// goroutine count. A record's place in its stream is counted in apply,
// which runs under the stream lock.
//
// On the in-memory FS a Sync is so short that the appenders might never
// overlap, and no fsync would be shared. So while every appender of a
// stream is still running, a Sync that covers one new record waits until
// each of the stream's other appenders has applied one more, and the next
// flush writes them in one batch. Each of them can apply: it is not in
// the syncing batch, and nothing else holds it. A wait that outlasts
// syncWait fails the test.
func TestLeaderFollowerCommit(t *testing.T) {
	const shards, appenders, each = 2, 6, 200
	const perShard, syncWait = appenders / shards, 10 * time.Second
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
		applied := make([]atomic.Int64, shards) // records per stream; counted under its lock
		running := make([]atomic.Int32, shards) // appenders still in their loop
		var stalled atomic.Bool
		for sh, f := range segs {
			running[sh].Store(perShard)
			f.beforeSync = func(covered int64) {
				recs := (covered - segHdrSize) / recordSize
				if syncEvery > 1 || recs-max(f.synced.Load()-segHdrSize, 0)/recordSize > 1 {
					return
				}
				deadline := time.Now().Add(syncWait)
				for applied[sh].Load() < recs+perShard-1 && running[sh].Load() == perShard {
					if time.Now().After(deadline) {
						stalled.Store(true)
						return
					}
					runtime.Gosched()
				}
			}
		}
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				sh := a % shards
				defer running[sh].Add(-1)
				for i := 0; i < each; i++ {
					var n uint64
					if _, err := l.Commit(sh, func() (wal.Record, bool) {
						n = uint64(applied[sh].Add(1))
						return wal.Record{TS: uint64(i + 1), Op: wal.OpInsert, Key: uint64(a), Val: uint64(i)}, true
					}); err != nil {
						t.Errorf("Commit: %v", err)
						return
					}
					need := int64(segHdrSize + n*recordSize)
					if got := segs[sh].written.Load(); got < need {
						t.Errorf("SyncEvery %d shard %d: record %d acknowledged with %d bytes written, needs %d", syncEvery, sh, n, got, need)
					}
					if got := segs[sh].synced.Load(); syncEvery <= 1 && got < need {
						t.Errorf("shard %d: record %d acknowledged with %d bytes synced, needs %d", sh, n, got, need)
					}
				}
			}(a)
		}
		wg.Wait()
		if stalled.Load() {
			t.Fatalf("SyncEvery %d: a Sync covering one record waited %v for the stream's other appenders to apply theirs", syncEvery, syncWait)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// An appender that has called wg.Done is still counted until it
		// exits, so the count is polled until it settles.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > before {
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
	_, _, err := wal.Open(wal.Options{Dir: dir, Shards: 2, FS: fs})
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
	l, _, err := wal.Open(wal.Options{Dir: dir, Shards: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, l, 0, wal.Record{Op: wal.OpInsert, Key: 1, Val: 1, TS: 1})
	// The seal's fsync and Close go through; the next segment's header
	// write does not. The checkpoint stops at collect, before it would
	// create a snapshot file.
	inner.Arm(faultfs.Fault{AtOp: inner.Ops() + 1, Kind: faultfs.KindENOSPC})
	stop := errors.New("stop")
	if err := l.Checkpoint(func([]wal.Pair) ([]wal.Pair, uint64, error) { return nil, 0, stop }); err != stop {
		t.Fatalf("Checkpoint = %v, want collect's error", err)
	}
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

// Close waits out an in-flight checkpoint; after it, Commit refuses
// without running apply, Checkpoint without calling collect, and neither
// touches the file system.
func TestClosedLogRefuses(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	l, _ := openLog(t, fs, 2, 1, nil)
	commit(t, l, 1, wal.Record{TS: 1, Op: wal.OpInsert, Key: 1, Val: 1})
	entered, release := make(chan struct{}), make(chan struct{})
	ckpt := make(chan error)
	go func() {
		ckpt <- l.Checkpoint(func(buf []wal.Pair) ([]wal.Pair, uint64, error) {
			close(entered)
			<-release
			return image(1, wal.Pair{Key: 1, Val: 1})(buf)
		})
	}()
	<-entered
	closed := make(chan error)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v while a checkpoint was collecting", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-ckpt; err != nil {
		t.Fatalf("in-flight Checkpoint = %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v", err)
	}

	ops := fs.Ops()
	if ok, err := l.Commit(0, func() (wal.Record, bool) {
		t.Error("Commit ran apply after Close")
		return wal.Record{}, true
	}); ok || !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Commit after Close = %v, %v; want false, ErrClosed", ok, err)
	}
	if err := l.Checkpoint(func(buf []wal.Pair) ([]wal.Pair, uint64, error) {
		t.Error("Checkpoint collected after Close")
		return buf, 0, nil
	}); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if n := fs.Ops(); n != ops {
		t.Fatalf("%d file-system writes after Close", n-ops)
	}
}
