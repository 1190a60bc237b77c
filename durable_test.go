package tscds_test

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tscds"
	"tscds/internal/bench"
	"tscds/internal/linearize"
	"tscds/internal/wal"
	"tscds/internal/wal/faultfs"
)

// These tests drive the durability layer through injected storage
// faults: run a recorded workload against a WAL-backed map on a
// fault-injecting filesystem, crash it at a chosen I/O operation, heal
// the disk image (dropping unsynced bytes, as a real crash does),
// recover, and require the recovered state to be a crash-consistent
// snapshot of the acknowledged history (linearize.CheckDurable).

const (
	cmDir      = "crashdir"
	cmWorkers  = 3
	cmOps      = 40
	cmKeyRange = 64
	cmKeyGap   = 16 // spreads the keys over 4 key blocks, 2 per shard
	cmShards   = 2
)

// uval is the harness's unique-value convention (thread in the high
// bits, sequence below), matching the linearize package's.
func uval(tid int, seq uint64) uint64 { return uint64(tid+1)<<40 | seq }

// crashOutcome is everything a crashed run leaves for the checker.
type crashOutcome struct {
	hist    *linearize.History
	pending []linearize.Event
}

// crashArm is the (structure, technique) pair a crash test's map is built
// over.
type crashArm struct {
	s tscds.Structure
	t tscds.Technique
}

// bstVcas is the arm of the crash tests that run one arm.
var bstVcas = crashArm{tscds.BST, tscds.VCAS}

// open opens the arm's durable sharded map on fs, syncing every update.
func (a crashArm) open(fs *faultfs.FS) (*tscds.ShardedMap, error) {
	return tscds.NewSharded(a.s, a.t, cmShards, tscds.Config{
		Source:     tscds.Logical,
		Durability: &tscds.Durability{Dir: cmDir, SyncEvery: 1, FS: fs},
	})
}

// runCrashWorkload drives the arm's durable map until every worker
// finishes or hits a durability error. Only operations that succeeded
// in memory are recorded: acknowledged ones (err == nil) become
// history, unacknowledged ones become pending. Worker 0 checkpoints
// halfway through, putting snapshot I/O inside the faultable window.
func runCrashWorkload(t *testing.T, fs *faultfs.FS, a crashArm) crashOutcome {
	t.Helper()
	m, err := a.open(fs)
	if err != nil {
		// The fault fired before the map even opened: there is no
		// acknowledged history to preserve.
		return crashOutcome{hist: &linearize.History{Cfg: linearize.Config{Seed: 1}}}
	}

	var clock atomic.Int64
	logs := make([][]linearize.Event, cmWorkers)
	var mu sync.Mutex
	var pending []linearize.Event
	var wg sync.WaitGroup
	for tid := 0; tid < cmWorkers; tid++ {
		th, err := m.RegisterThread()
		if err != nil {
			t.Fatalf("RegisterThread: %v", err)
		}
		wg.Add(1)
		go func(tid int, th *tscds.Thread) {
			defer wg.Done()
			defer th.Release()
			rng := rand.New(rand.NewSource(int64(tid) + 1))
			var seq uint64
			log := make([]linearize.Event, 0, cmOps)
			defer func() { // keep acked events even when stopping on error
				mu.Lock()
				logs[tid] = log
				mu.Unlock()
			}()
			for i := 0; i < cmOps; i++ {
				if tid == 0 && i == cmOps/2 {
					_ = m.Checkpoint() // may fail under the fault; recovery decides
				}
				key := rng.Uint64() % cmKeyRange * cmKeyGap
				ev := linearize.Event{Thread: tid, Key: key}
				var ok bool
				var err error
				if rng.Intn(100) < 60 {
					seq++
					ev.Op, ev.Val = linearize.OpInsert, uval(tid, seq)
					ev.Inv = clock.Add(1)
					ok, err = m.InsertDurable(th, key, ev.Val)
				} else {
					ev.Op = linearize.OpDelete
					ev.Inv = clock.Add(1)
					ok, err = m.DeleteDurable(th, key)
				}
				ev.Ret = clock.Add(1)
				ev.OK = ok
				if err != nil {
					// Applied in memory but never acknowledged durable:
					// the crash decides whether it survives.
					if ok {
						mu.Lock()
						pending = append(pending, ev)
						mu.Unlock()
					}
					return // workers stop at the first durability error
				}
				if ok {
					log = append(log, ev)
				}
			}
		}(tid, th)
	}
	wg.Wait()
	_ = m.Close() // under a crash fault this reports the sticky error

	return crashOutcome{
		hist:    &linearize.History{Cfg: linearize.Config{Seed: 1}, Threads: logs},
		pending: pending,
	}
}

// recoverAndCheck heals the disk image, reopens the arm's map, reads back
// its full content and validates it against the crashed run.
func recoverAndCheck(t *testing.T, fs *faultfs.FS, a crashArm, out crashOutcome) {
	t.Helper()
	fs.Heal()
	m, err := a.open(fs)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer m.Close()
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatalf("RegisterThread: %v", err)
	}
	defer th.Release()
	recovered := m.RangeQuery(th, 0, cmKeyRange*cmKeyGap, nil)
	if err := linearize.CheckDurable(out.hist, out.pending, recovered); err != nil {
		rec := m.LastRecovery()
		t.Fatalf("recovered state inconsistent with acknowledged history\nrecovery: %+v\n%v", rec, err)
	}
	requireShape(t, m)
}

// TestCrashMatrix is the acceptance gate: on every arm tscds.New accepts,
// for every injected crash point across the workload's I/O trace — segment
// creation, WAL batch writes, fsyncs, snapshot temp-writes, renames,
// directory syncs — the recovered map must satisfy durable linearizability
// against the acknowledged pre-crash history.
func TestCrashMatrix(t *testing.T) {
	for _, spec := range bench.Arms() {
		s, tech, err := bench.ParseArm(spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(spec, func(t *testing.T) { crashMatrix(t, crashArm{s, tech}) })
	}
}

// crashMatrix runs every fault kind at evenly spaced points of one arm's
// I/O trace.
func crashMatrix(t *testing.T, a crashArm) {
	dry := faultfs.New(faultfs.Fault{})
	out := runCrashWorkload(t, dry, a)
	if got := out.hist.Events(); got == 0 {
		t.Fatal("dry run recorded no events")
	}
	recoverAndCheck(t, dry, a, out)
	total := dry.Ops()
	if total < 10 {
		t.Fatalf("dry run performed only %d I/O ops", total)
	}

	points := 12
	if testing.Short() {
		points = 6
	}
	kinds := []struct {
		kind faultfs.Kind
		name string
	}{
		{faultfs.KindCrash, "crash"},
		{faultfs.KindTorn, "torn"},
		{faultfs.KindWriteErr, "transient"},
		{faultfs.KindENOSPC, "enospc"},
	}
	for _, k := range kinds {
		for p := 0; p < points; p++ {
			// Evenly spaced over the dry run's I/O trace. Concurrency
			// makes other runs' traces differ slightly; a point past the
			// end simply never fires, which is still a valid (clean) run.
			// The subtest is named by the point's index, which every run
			// shares, and logs the op it fires at, which may differ.
			at := 1 + p*(total-1)/(points-1)
			t.Run(fmt.Sprintf("%s/p%02d", k.name, p), func(t *testing.T) {
				t.Logf("fault at I/O op %d of the dry run's %d", at, total)
				fs := faultfs.New(faultfs.Fault{AtOp: at, Kind: k.kind})
				out := runCrashWorkload(t, fs, a)
				if k.kind == faultfs.KindWriteErr && fs.Crashed() {
					t.Fatal("transient fault crashed the filesystem")
				}
				recoverAndCheck(t, fs, a, out)
			})
		}
	}
}

// TestCrashDuringRecovery crashes the recovery run itself (while it
// opens fresh segments for the new run generation): the open must fail
// cleanly, and a second attempt must recover everything.
func TestCrashDuringRecovery(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	out := runCrashWorkload(t, fs, bstVcas)

	// Clone the surviving image onto a filesystem armed to crash at the
	// recovery run's second mutating I/O (mid segment setup).
	armed := faultfs.New(faultfs.Fault{})
	copyImage(t, fs, armed)
	armed.Arm(faultfs.Fault{AtOp: armed.Ops() + 2, Kind: faultfs.KindCrash})
	if _, err := bstVcas.open(armed); err == nil {
		t.Fatal("open under recovery crash succeeded")
	}
	recoverAndCheck(t, armed, bstVcas, out)
}

// copyImage clones src's surviving files into dst.
func copyImage(t *testing.T, src, dst *faultfs.FS) {
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

// TestRecoverRefusesCorruptInterior verifies end to end that interior
// damage — a flipped bit with intact records after it — fails the open
// with a descriptive error instead of silently truncating history.
func TestRecoverRefusesCorruptInterior(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	runCrashWorkload(t, fs, bstVcas)
	var seg string
	for _, p := range fs.Paths() {
		if strings.Contains(p, "wal-") && fs.Size(p) > 32+3*29 {
			seg = p
			break
		}
	}
	if seg == "" {
		t.Fatal("no segment with enough records to corrupt")
	}
	if err := fs.Corrupt(seg, 32+10); err != nil { // inside the first record
		t.Fatalf("Corrupt: %v", err)
	}
	_, err := bstVcas.open(fs)
	if err == nil {
		t.Fatal("open accepted a corrupt WAL interior")
	}
	if !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("corruption error lacks file/offset detail: %v", err)
	}
}

// TestDurableRestartRoundtrip exercises the real filesystem: insert,
// checkpoint, insert more, close cleanly, reopen, and expect the exact
// content back with the snapshot + replay split visible in the stats.
func TestDurableRestartRoundtrip(t *testing.T) {
	dir := t.TempDir()
	cfg := tscds.Config{Source: tscds.Logical, Durability: &tscds.Durability{Dir: dir, SyncEvery: 1}}
	m, err := tscds.New(tscds.BST, tscds.VCAS, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dm := m.(tscds.DurableMap)
	th, _ := m.RegisterThread()
	for k := uint64(0); k < 20; k++ {
		if ok, err := dm.InsertDurable(th, k, k*10); !ok || err != nil {
			t.Fatalf("InsertDurable(%d) = %v, %v", k, ok, err)
		}
	}
	if err := dm.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for k := uint64(20); k < 30; k++ {
		if ok, err := dm.InsertDurable(th, k, k*10); !ok || err != nil {
			t.Fatalf("InsertDurable(%d) = %v, %v", k, ok, err)
		}
	}
	if ok, err := dm.DeleteDurable(th, 5); !ok || err != nil {
		t.Fatalf("DeleteDurable(5) = %v, %v", ok, err)
	}
	th.Release()
	if err := dm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2, err := tscds.New(tscds.BST, tscds.VCAS, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	dm2 := m2.(tscds.DurableMap)
	defer dm2.Close()
	rec := dm2.LastRecovery()
	if rec.SnapshotKeys != 20 {
		t.Fatalf("recovery loaded %d snapshot keys, want 20 (%+v)", rec.SnapshotKeys, rec)
	}
	if rec.Replayed != 11 {
		t.Fatalf("recovery replayed %d records, want 11 (%+v)", rec.Replayed, rec)
	}
	th2, _ := m2.RegisterThread()
	defer th2.Release()
	got := m2.RangeQuery(th2, 0, 100, nil)
	if len(got) != 29 {
		t.Fatalf("recovered %d keys, want 29", len(got))
	}
	for _, kv := range got {
		if kv.Key == 5 {
			t.Fatal("deleted key 5 resurrected")
		}
		if kv.Val != kv.Key*10 {
			t.Fatalf("key %d recovered value %d, want %d", kv.Key, kv.Val, kv.Key*10)
		}
	}
}

// TestMaxKeyBoundaryShiftedStructures: the two ends of the key space, 0
// and MaxKey, are keys like any other on every arm, flat and at 4 shards
// (where they live in different shards), and survive a Checkpoint, a WAL
// tail, Close and reopen.
func TestMaxKeyBoundaryShiftedStructures(t *testing.T) {
	const top = tscds.MaxKey
	for _, spec := range bench.Arms() {
		s, tech, err := bench.ParseArm(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/s%d", spec, shards), func(t *testing.T) {
				fs := faultfs.New(faultfs.Fault{})
				expect := func(m tscds.Map, th *tscds.Thread, lo, hi uint64, want ...tscds.KV) {
					t.Helper()
					if got := m.RangeQuery(th, lo, hi, nil); !slices.Equal(got, want) {
						t.Fatalf("RangeQuery(%d, %d) = %v, want %v", lo, hi, got, want)
					}
				}
				m := openDurable(t, s, tech, shards, fs)
				th, _ := m.RegisterThread()
				if !m.Insert(th, 0, 1) || !m.Insert(th, top, 2) || m.Insert(th, 0, 3) || !m.Contains(th, top) {
					t.Fatal("insert semantics at the key space's ends")
				}
				if m.Insert(th, top+1, 1) || m.Contains(th, top+1) {
					t.Fatal("a key above MaxKey was taken")
				}
				expect(m, th, 0, 0, tscds.KV{Key: 0, Val: 1})
				expect(m, th, top-1, top, tscds.KV{Key: top, Val: 2})
				if err := m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if !m.Delete(th, top) || !m.Insert(th, top, 4) || !m.Insert(th, 1, 5) {
					t.Fatal("update semantics after the checkpoint")
				}
				th.Release()
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				m = openDurable(t, s, tech, shards, fs)
				defer m.Close()
				th, _ = m.RegisterThread()
				defer th.Release()
				expect(m, th, 0, top, tscds.KV{Key: 0, Val: 1}, tscds.KV{Key: 1, Val: 5}, tscds.KV{Key: top, Val: 4})
				if !m.Delete(th, 0) || !m.Delete(th, top) || m.Contains(th, 0) || m.Contains(th, top) {
					t.Fatal("delete semantics after reopen")
				}
			})
		}
	}
}

// TestUpdateAfterClose: an update after Close is refused and touches
// nothing, on every arm, flat and at 4 shards. Applied in memory, it would
// read back until the map reopened without it.
func TestUpdateAfterClose(t *testing.T) {
	keys := []uint64{1, 257, 513, 769} // one key block per shard
	for _, spec := range bench.Arms() {
		s, tech, err := bench.ParseArm(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/s%d", spec, shards), func(t *testing.T) {
				fs := faultfs.New(faultfs.Fault{})
				m := openDurable(t, s, tech, shards, fs)
				th, _ := m.RegisterThread()
				defer th.Release()
				for _, k := range keys[:2] {
					if ok, err := m.InsertDurable(th, k, k); !ok || err != nil {
						t.Fatalf("InsertDurable(%d) = %v, %v", k, ok, err)
					}
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				for _, k := range keys {
					if ok, err := m.InsertDurable(th, k+1, k); ok || !errors.Is(err, wal.ErrClosed) {
						t.Fatalf("InsertDurable(%d) after Close = %v, %v; want false, %v", k+1, ok, err, wal.ErrClosed)
					}
					if ok, err := m.DeleteDurable(th, k); ok || !errors.Is(err, wal.ErrClosed) {
						t.Fatalf("DeleteDurable(%d) after Close = %v, %v; want false, %v", k, ok, err, wal.ErrClosed)
					}
					if m.Insert(th, k+2, k) || m.Delete(th, k) {
						t.Fatalf("Insert(%d) or Delete(%d) after Close reported success", k+2, k)
					}
				}
				want := []tscds.KV{{Key: keys[0], Val: keys[0]}, {Key: keys[1], Val: keys[1]}}
				if got := m.RangeQuery(th, 0, tscds.MaxKey, nil); !slices.Equal(got, want) {
					t.Fatalf("after refused updates the map holds %v, want %v", got, want)
				}
				m = openDurable(t, s, tech, shards, fs)
				defer m.Close()
				th2, _ := m.RegisterThread()
				defer th2.Release()
				if got := m.RangeQuery(th2, 0, tscds.MaxKey, nil); !slices.Equal(got, want) {
					t.Fatalf("reopened map holds %v, want %v", got, want)
				}
			})
		}
	}
}

// TestCloseUnderLoad: two writers insert while a third goroutine closes
// the map. Every insert acknowledged without error survives reopen, and
// every refused one is absent: no update straddles Close.
func TestCloseUnderLoad(t *testing.T) {
	fs := faultfs.New(faultfs.Fault{})
	m := openDurable(t, tscds.BST, tscds.VCAS, 4, fs)
	var acked [2][]uint64
	var refused [2]uint64
	var started, running atomic.Int64
	var wg sync.WaitGroup
	for w := range acked {
		th, err := m.RegisterThread()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			defer th.Release()
			for k := uint64(w); ; k += 2 {
				ok, err := m.InsertDurable(th, k, k)
				switch {
				case ok && err == nil:
					acked[w] = append(acked[w], k)
					started.Add(1)
				case !ok && errors.Is(err, wal.ErrClosed):
					refused[w] = k
					return
				default:
					t.Errorf("InsertDurable(%d) = %v, %v; want acknowledged or refused", k, ok, err)
					return
				}
			}
		}()
	}
	for started.Load() < 200 && running.Load() > 0 {
		runtime.Gosched()
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	m = openDurable(t, tscds.BST, tscds.VCAS, 4, fs)
	defer m.Close()
	th, _ := m.RegisterThread()
	defer th.Release()
	for w := range acked {
		for _, k := range acked[w] {
			if !m.Contains(th, k) {
				t.Fatalf("writer %d: acknowledged key %d lost on reopen", w, k)
			}
		}
		if m.Contains(th, refused[w]) {
			t.Fatalf("writer %d: refused key %d present on reopen", w, refused[w])
		}
	}
	if got, want := m.Len(), len(acked[0])+len(acked[1]); got != want {
		t.Fatalf("reopened map holds %d keys, want the %d acknowledged", got, want)
	}
}

// TestCheckpointAfterClose: once Close returns, Checkpoint and
// CheckpointAt refuse with wal.ErrClosed before they collect or write:
// the file system sees no operation and the source no snapshot. Close
// released the durability handle, so in a two-slot registry a thread
// registered after it takes that handle's slot; no collect runs there.
func TestCheckpointAfterClose(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("s%d", shards), func(t *testing.T) {
			fs := faultfs.New(faultfs.Fault{})
			reg := tscds.NewMetrics()
			cfg := tscds.Config{Source: tscds.Logical, MaxThreads: 2, Metrics: reg,
				Durability: &tscds.Durability{Dir: cmDir, SyncEvery: 1, FS: fs}}
			var m tscds.Map
			var err error
			if shards == 1 {
				m, err = tscds.New(tscds.BST, tscds.VCAS, cfg)
			} else {
				m, err = tscds.NewSharded(tscds.BST, tscds.VCAS, shards, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			dm := m.(tscds.DurableMap)
			th, err := dm.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			for k := uint64(1); k < 1024; k += 256 {
				if ok, err := dm.InsertDurable(th, k, k); !ok || err != nil {
					t.Fatalf("InsertDurable(%d) = %v, %v", k, ok, err)
				}
			}
			past := dm.Now()
			if err := dm.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint before Close: %v", err)
			}
			if err := dm.Close(); err != nil {
				t.Fatal(err)
			}
			late, err := dm.RegisterThread()
			if err != nil {
				t.Fatalf("RegisterThread after Close: %v; the durability handle was not released", err)
			}
			defer late.Release()
			ops, snaps := fs.Ops(), reg.Snapshot().Source.Snapshots
			if err := dm.Checkpoint(); !errors.Is(err, wal.ErrClosed) {
				t.Errorf("Checkpoint after Close = %v, want %v", err, wal.ErrClosed)
			}
			if err := dm.CheckpointAt(past); !errors.Is(err, wal.ErrClosed) {
				t.Errorf("CheckpointAt after Close = %v, want %v", err, wal.ErrClosed)
			}
			if n := fs.Ops() - ops; n != 0 {
				t.Errorf("%d file-system operations after Close", n)
			}
			if n := reg.Snapshot().Source.Snapshots - snaps; n != 0 {
				t.Errorf("%d snapshots taken after Close: a checkpoint collected on the released handle's slot", n)
			}
		})
	}
}

// openDurable opens a durable map of the arm on fs, flat when shards is
// 1, syncing every update.
func openDurable(t *testing.T, s tscds.Structure, tech tscds.Technique, shards int, fs *faultfs.FS) tscds.DurableMap {
	t.Helper()
	cfg := tscds.Config{Source: tscds.Logical, Durability: &tscds.Durability{Dir: cmDir, SyncEvery: 1, FS: fs}}
	var m tscds.Map
	var err error
	if shards == 1 {
		m, err = tscds.New(s, tech, cfg)
	} else {
		m, err = tscds.NewSharded(s, tech, shards, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m.(tscds.DurableMap)
}

// TestRecoverResidueStreams: a directory whose 4-stream log split keys by
// residue (key mod 4), as a map did before shards owned key blocks, still
// recovers. Within one run every record of a key sits in one stream under
// either rule, and recovery replays run by run, so a directory holding a
// residue run followed by a block run recovers too.
func TestRecoverResidueStreams(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(wal.Options{Dir: dir, Shards: 4, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]uint64{}
	var ts uint64
	put := func(op wal.OpKind, key, val uint64) {
		ts++
		if _, err := log.Commit(int(key%4), func() (wal.Record, bool) {
			return wal.Record{TS: ts, Op: op, Key: key, Val: val}, true
		}); err != nil {
			t.Fatal(err)
		}
		if op == wal.OpInsert {
			model[key] = val
		} else {
			delete(model, key)
		}
	}
	for k := uint64(0); k < 2000; k += 37 {
		put(wal.OpInsert, k, k+1)
	}
	var pairs []wal.Pair
	for k := uint64(0); k < 2000; k += 37 {
		pairs = append(pairs, wal.Pair{Key: k, Val: model[k]})
	}
	if err := log.Checkpoint(func(buf []wal.Pair) ([]wal.Pair, uint64, error) {
		return append(buf, pairs...), ts, nil
	}); err != nil {
		t.Fatal(err)
	}
	put(wal.OpInsert, 1001, 7) // inserted and deleted after the snapshot
	put(wal.OpDelete, 1001, 0)
	put(wal.OpDelete, 370, 0) // a snapshot key deleted, then reinserted
	put(wal.OpInsert, 370, 9)
	put(wal.OpDelete, 1517, 0)
	put(wal.OpInsert, 1600, 3)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := tscds.Config{Source: tscds.Logical, Durability: &tscds.Durability{Dir: dir, SyncEvery: 1}}
	reopen := func(stage string) (*tscds.ShardedMap, *tscds.Thread) {
		t.Helper()
		m, err := tscds.NewSharded(tscds.SkipList, tscds.Bundle, 4, cfg)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		th, _ := m.RegisterThread()
		var want []tscds.KV
		for k, v := range model {
			want = append(want, tscds.KV{Key: k, Val: v})
		}
		slices.SortFunc(want, func(a, b tscds.KV) int { return cmp.Compare(a.Key, b.Key) })
		if got := m.RangeQuery(th, 0, tscds.MaxKey, nil); !slices.Equal(got, want) {
			t.Fatalf("%s: recovered %d pairs %v\nwant %d pairs %v", stage, len(got), got, len(want), want)
		}
		return m, th
	}
	m, th := reopen("residue run")
	if rec := m.LastRecovery(); rec.SnapshotKeys != len(pairs) || rec.Replayed != 6 {
		t.Fatalf("recovery loaded %d snapshot keys and replayed %d records, want %d and 6", rec.SnapshotKeys, rec.Replayed, len(pairs))
	}
	// Keys whose residue stream and block shard differ, logged now under
	// blocks: 1600's insert sits in residue stream 0, its delete in block
	// stream 2.
	for _, k := range []uint64{1600, 74, 1001} {
		if _, ok := model[k]; ok {
			m.Delete(th, k)
			delete(model, k)
		} else {
			m.Insert(th, k, k*5)
			model[k] = k * 5
		}
	}
	th.Release()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m, th = reopen("residue and block runs")
	th.Release()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableBatchedMode checks the bounded-loss configuration: acks
// come before fsync, but a clean Close still makes everything durable.
func TestDurableBatchedMode(t *testing.T) {
	dir := t.TempDir()
	reg := tscds.NewMetrics()
	cfg := tscds.Config{Source: tscds.Logical, Metrics: reg, Durability: &tscds.Durability{Dir: dir, SyncEvery: 64}}
	m, err := tscds.NewSharded(tscds.BST, tscds.VCAS, cmShards, cfg)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	th, _ := m.RegisterThread()
	for k := uint64(0); k < 50; k++ {
		if ok, err := m.InsertDurable(th, k, k+1); !ok || err != nil {
			t.Fatalf("InsertDurable(%d) = %v, %v", k, ok, err)
		}
	}
	th.Release()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Every update crossed the WAL and fsyncs were shared, not one each.
	if w := reg.Snapshot().WAL; w == nil || w.Appends != 50 || w.Fsyncs == 0 || w.Fsyncs*2 >= w.Appends {
		t.Fatalf("WAL counters after 50 batched inserts and Close: %+v", w)
	}
	m2, err := tscds.NewSharded(tscds.BST, tscds.VCAS, cmShards, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	th2, _ := m2.RegisterThread()
	defer th2.Release()
	if got := len(m2.RangeQuery(th2, 0, 100, nil)); got != 50 {
		t.Fatalf("recovered %d keys after clean batched close, want 50", got)
	}
}

// TestCheckpointOnPlainMapErrors pins the non-durable error path.
func TestCheckpointOnPlainMapErrors(t *testing.T) {
	reg := tscds.NewMetrics()
	m, err := tscds.New(tscds.BST, tscds.VCAS, tscds.Config{Metrics: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.(tscds.DurableMap).Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a non-durable map returned nil")
	}
	if w := reg.Snapshot().WAL; w != nil {
		t.Fatalf("a map without Durability reports WAL counters: %+v", *w)
	}
}

// TestDrainRacesCheckpoint races Drain (eager reclamation of
// version chains and limbo lists) against a Checkpoint every millisecond
// and concurrent writers. Each checkpoint pins a timestamp and collects
// the whole map while Drain reclaims; under -race this guards the
// snapshot collect's announced-timestamp protocol against reclamation.
// Run for both a version-chain structure (vCAS) and an EBR-heavy one, for
// 300 ms each, or 50 ms under -short (make durable-race).
func TestDrainRacesCheckpoint(t *testing.T) {
	soak := 300 * time.Millisecond
	if testing.Short() {
		soak = 50 * time.Millisecond
	}
	for _, tc := range []struct {
		name string
		tech tscds.Technique
	}{
		{"vcas", tscds.VCAS},
		{"ebrrq-lockfree", tscds.EBRRQLockFree},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := tscds.Config{
				Source:     tscds.Logical,
				Durability: &tscds.Durability{Dir: dir, SyncEvery: 8},
			}
			m, err := tscds.NewSharded(tscds.BST, tc.tech, cmShards, cfg)
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				th, err := m.RegisterThread()
				if err != nil {
					t.Fatalf("RegisterThread: %v", err)
				}
				wg.Add(1)
				go func(w int, th *tscds.Thread) {
					defer wg.Done()
					defer th.Release()
					rng := rand.New(rand.NewSource(int64(w) + 99))
					var seq uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						key := rng.Uint64() % 128
						if rng.Intn(2) == 0 {
							seq++
							if _, err := m.InsertDurable(th, key, uval(w, seq)); err != nil {
								t.Errorf("InsertDurable: %v", err)
								return
							}
						} else {
							if _, err := m.DeleteDurable(th, key); err != nil {
								t.Errorf("DeleteDurable: %v", err)
								return
							}
						}
					}
				}(w, th)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						if err := m.Checkpoint(); err != nil {
							t.Errorf("Checkpoint: %v", err)
							return
						}
					}
				}
			}()
			deadline := time.After(soak)
		drainLoop:
			for {
				select {
				case <-deadline:
					break drainLoop
				default:
					m.Drain()
				}
			}
			close(stop)
			wg.Wait()
			if err := m.WALError(); err != nil {
				t.Fatalf("WALError: %v", err)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestDurableCloseLeavesNoGoroutine: a durable map starts no goroutine
// of its own, so after updates, a Checkpoint and Close the process is
// back at the goroutine count it had before the map opened. Flat and at
// 4 shards.
func TestDurableCloseLeavesNoGoroutine(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("s%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := openDurable(t, tscds.BST, tscds.VCAS, shards, faultfs.New(faultfs.Fault{}))
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 64; k++ {
				if _, err := m.InsertDurable(th, k*cmKeyGap, k); err != nil {
					t.Fatalf("InsertDurable: %v", err)
				}
			}
			if _, err := m.DeleteDurable(th, 0); err != nil {
				t.Fatalf("DeleteDurable: %v", err)
			}
			if err := m.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			th.Release()
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Fatalf("%d goroutines after Close, %d before the map opened", n, base)
			}
		})
	}
}
