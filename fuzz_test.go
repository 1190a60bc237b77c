package tscds

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// keyStride spreads a fuzz tape's byte keys over 16 key blocks, two of
// every shard at 8 shards, so a sharded map under a tape routes to every
// shard and its range queries cross shards.
const keyStride = 16

// checkRangeAgainstModel compares one RangeQuery and one Scan of [lo,hi]
// against the model, key for key in ascending order — not just counts, so
// a snapshot returning the right number of wrong pairs, or the right
// pairs out of order, cannot pass.
func checkRangeAgainstModel(t *testing.T, label string, m Map, th *Thread, model map[uint64]uint64, lo, hi uint64) {
	t.Helper()
	var want []KV
	for k, v := range model {
		if k >= lo && k <= hi {
			want = append(want, KV{Key: k, Val: v})
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })

	got := m.RangeQuery(th, lo, hi, nil)
	if len(got) != len(want) {
		t.Fatalf("%s: range[%d,%d] = %d pairs, want %d", label, lo, hi, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] { // RangeQuery contract: ascending key order
			t.Fatalf("%s: range[%d,%d][%d] = %v, want %v", label, lo, hi, i, got[i], want[i])
		}
	}

	var scanned []KV
	m.Scan(th, lo, hi, func(kv KV) bool {
		scanned = append(scanned, kv)
		return true
	})
	if len(scanned) != len(want) {
		t.Fatalf("%s: scan[%d,%d] = %d pairs, want %d", label, lo, hi, len(scanned), len(want))
	}
	for i := range scanned {
		if scanned[i] != want[i] { // Scan contract: ascending key order
			t.Fatalf("%s: scan[%d,%d][%d] = %v, want %v", label, lo, hi, i, scanned[i], want[i])
		}
	}
	if len(want) > 1 {
		calls := 0
		m.Scan(th, lo, hi, func(KV) bool {
			calls++
			return false
		})
		if calls != 1 {
			t.Fatalf("%s: early-exit scan made %d calls, want 1", label, calls)
		}
	}
}

// tapeStep applies op i of a tape to m and the model at key — 0 inserts,
// 1 deletes, 2 tests membership, anything else compares [key, key+span]
// with checkRangeAgainstModel — and fails on the first disagreement.
func tapeStep(t *testing.T, label string, i int, m Map, th *Thread, model map[uint64]uint64, op byte, key, span uint64) {
	t.Helper()
	_, exists := model[key]
	switch op {
	case 0:
		if got := m.Insert(th, key, key*3); got == exists {
			t.Fatalf("%s op %d: Insert(%d)=%v exists=%v", label, i, key, got, exists)
		}
		if !exists {
			model[key] = key * 3
		}
	case 1:
		if got := m.Delete(th, key); got != exists {
			t.Fatalf("%s op %d: Delete(%d)=%v exists=%v", label, i, key, got, exists)
		}
		delete(model, key)
	case 2:
		if got := m.Contains(th, key); got != exists {
			t.Fatalf("%s op %d: Contains(%d)=%v want %v", label, i, key, got, exists)
		}
	default:
		checkRangeAgainstModel(t, fmt.Sprintf("%s op %d", label, i), m, th, model, key, key+span)
	}
}

// checkFinal compares the whole map with the model once a tape has run.
func checkFinal(t *testing.T, label string, m Map, th *Thread, model map[uint64]uint64) {
	t.Helper()
	checkRangeAgainstModel(t, label+" final", m, th, model, 0, MaxKey)
	if m.Len() != len(model) {
		t.Fatalf("%s final: Len=%d model=%d", label, m.Len(), len(model))
	}
	if _, _, err := Shape(m); err != nil {
		t.Fatalf("%s final: %v", label, err)
	}
}

// FuzzMapAgainstModel feeds arbitrary operation tapes through every
// (structure, technique) pair and a reference map simultaneously. Each
// tape byte-pair is one operation: the first byte selects the op, the
// second the key. Run with `go test -fuzz=FuzzMapAgainstModel` for
// continuous exploration; without -fuzz the seed corpus still executes.
func FuzzMapAgainstModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 1, 1, 3, 0})
	f.Add([]byte{0, 5, 0, 6, 0, 7, 1, 6, 3, 4, 2, 7})
	f.Add([]byte{})
	seq := []byte{}
	for i := 0; i < 64; i++ {
		seq = append(seq, byte(i%4), byte(i*7))
	}
	f.Add(seq)

	combos := allCombos()
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 512 {
			tape = tape[:512]
		}
		for _, c := range combos {
			m, err := New(c.S, c.T, Config{Source: Logical, MaxThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v/%v", c.S, c.T)
			model := map[uint64]uint64{}
			for i := 0; i+1 < len(tape); i += 2 {
				tapeStep(t, label, i, m, th, model, tape[i]%4, uint64(tape[i+1]), 16)
			}
			checkFinal(t, label, m, th, model)
			th.Release()
		}
	})
}

// FuzzShardedAgainstModel is FuzzMapAgainstModel through the sharded
// front end: the first tape byte picks the shard count (1-8), the second
// the (structure, technique) pair, and the rest is an op tape, its key
// bytes spread by keyStride, whose range queries are compared against the
// model key for key — so a cross-shard snapshot that loses, duplicates,
// misroutes or misorders a key cannot pass.
func FuzzShardedAgainstModel(f *testing.F) {
	for n := byte(0); n < 8; n++ {
		f.Add(append([]byte{n, n}, 0, 1, 0, 2, 2, 1, 1, 1, 3, 0))
	}
	seq := []byte{3, 4}
	for i := 0; i < 64; i++ {
		seq = append(seq, byte(i%4), byte(i*7))
	}
	f.Add(seq)

	combos := allCombos()
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 2 {
			return
		}
		if len(tape) > 512 {
			tape = tape[:512]
		}
		shards := int(tape[0]%8) + 1
		c := combos[int(tape[1])%len(combos)]
		tape = tape[2:]
		label := fmt.Sprintf("%v/%v/shards=%d", c.S, c.T, shards)

		m, err := NewSharded(c.S, c.T, shards, Config{Source: Logical, MaxThreads: 2})
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.RegisterThread()
		if err != nil {
			t.Fatal(err)
		}
		defer th.Release()
		model := map[uint64]uint64{}
		for i := 0; i+1 < len(tape); i += 2 {
			// A range of four keys spans at most two blocks: a partial fan-out.
			tapeStep(t, label, i, m, th, model, tape[i]%4, uint64(tape[i+1])*keyStride, 3*keyStride)
		}
		checkFinal(t, label, m, th, model)
	})
}

// FuzzAdaptiveSwitch drives an Adaptive-source map against the model
// while injecting TSC backsteps at tape-chosen points: the first byte
// picks the (structure, technique) pair, and bit 7 of each op byte
// injects a backstep into the health monitor immediately before the op,
// forcing a hardware→logical generation switch (and, after enough quiet
// operations, possibly a failback). Every range query after a switch is
// compared key for key against the model, so a snapshot torn across a
// generation boundary cannot pass.
func FuzzAdaptiveSwitch(f *testing.F) {
	f.Add([]byte{0, 0x80, 1, 0, 2, 2, 1, 0x81, 1, 3, 0})
	f.Add([]byte{5, 0, 9, 0x83, 7, 1, 9, 0x80, 3, 0})
	seq := []byte{2}
	for i := 0; i < 64; i++ {
		b := byte(i % 4)
		if i%9 == 0 {
			b |= 0x80 // periodic backsteps through the tape
		}
		seq = append(seq, b, byte(i*7))
	}
	f.Add(seq)

	combos := allCombos()
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 1 {
			return
		}
		if len(tape) > 512 {
			tape = tape[:512]
		}
		c := combos[int(tape[0])%len(combos)]
		tape = tape[1:]
		label := fmt.Sprintf("%v/%v/adaptive", c.S, c.T)

		health := NewTSCHealth(2)
		m, err := New(c.S, c.T, Config{Source: Adaptive, Health: health, MaxThreads: 2})
		if err != nil {
			if c.T == EBRRQLockFree {
				return // requires an addressable source; Adaptive is not
			}
			t.Fatal(err)
		}
		th, err := m.RegisterThread()
		if err != nil {
			t.Fatal(err)
		}
		defer th.Release()
		model := map[uint64]uint64{}
		injected := 0
		for i := 0; i+1 < len(tape); i += 2 {
			if tape[i]&0x80 != 0 {
				health.InjectBackstep(uint64(time.Hour))
				injected++
			}
			tapeStep(t, label, i, m, th, model, tape[i]%4, uint64(tape[i+1]), 16)
		}
		checkFinal(t, label, m, th, model)
		if injected > 0 {
			if hs := health.Snapshot(); hs.SourceSwitches < 1 {
				t.Fatalf("%s: %d backsteps injected but no generation switch recorded", label, injected)
			}
		}
	})
}

// FuzzTimeTravelAgainstModel checks MVCC time travel against a
// versioned model. Three maps run the same single-threaded op tape: a
// retain-everything map, its sharded twin (the cross-shard historical
// fan-out must agree with the merged model exactly), and a
// no-retention map where a historical read may legally refuse with
// ErrTruncatedHistory but must otherwise return exactly the model
// state. After every update the model state is snapshotted together
// with a Now() stamp from each map; historical reads replay those
// snapshots at stamps of arbitrary age — including the pre-history
// stamp captured before the first update, which must read as empty.
// The first tape byte picks the (structure, technique) pair among the
// history-retaining ones, the second the shard count; key bytes are
// spread by keyStride, so the sharded twin's reads cross shards.
func FuzzTimeTravelAgainstModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 5, 0, 6, 2, 5, 1, 6, 3, 4, 2, 9})
	f.Add([]byte{3, 3, 0, 1, 4, 1, 0, 2, 5, 0, 1, 1, 2, 0})
	seq := []byte{1, 2}
	for i := 0; i < 64; i++ {
		seq = append(seq, byte(i%6), byte(i*7))
	}
	f.Add(seq)

	var combos []struct {
		S Structure
		T Technique
	}
	for _, c := range allCombos() {
		if c.T == VCAS || c.T == Bundle {
			combos = append(combos, c)
		}
	}

	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 2 {
			return
		}
		if len(tape) > 512 {
			tape = tape[:512]
		}
		c := combos[int(tape[0])%len(combos)]
		shards := int(tape[1]%4) + 1
		tape = tape[2:]
		label := fmt.Sprintf("%v/%v/shards=%d", c.S, c.T, shards)

		full, err := New(c.S, c.T, Config{Source: Logical, MaxThreads: 2, Retention: ^uint64(0)})
		if err != nil {
			t.Fatal(err)
		}
		shard, err := NewSharded(c.S, c.T, shards, Config{Source: Logical, MaxThreads: 2, Retention: ^uint64(0)})
		if err != nil {
			t.Fatal(err)
		}
		tight, err := New(c.S, c.T, Config{Source: Logical, MaxThreads: 2})
		if err != nil {
			t.Fatal(err)
		}
		maps := []Map{full, shard, tight}
		ths := make([]*Thread, len(maps))
		for i, m := range maps {
			if ths[i], err = m.RegisterThread(); err != nil {
				t.Fatal(err)
			}
			defer ths[i].Release()
		}

		// One snapshot per model state: a copy of the model plus the
		// stamp each map handed out for that state. snaps[0] is the
		// pre-history snapshot (empty state, first stamps — on a logical
		// source that first Now() is timestamp zero).
		type snap struct {
			state map[uint64]uint64
			ts    [3]uint64
		}
		record := func(model map[uint64]uint64) snap {
			st := make(map[uint64]uint64, len(model))
			for k, v := range model {
				st[k] = v
			}
			var s snap
			s.state = st
			for i, m := range maps {
				s.ts[i] = m.Now()
			}
			return s
		}
		model := map[uint64]uint64{}
		snaps := []snap{record(model)}

		// checkAt replays snapshot sn against map i at its captured
		// stamp. mayTruncate permits an ErrTruncatedHistory refusal (the
		// no-retention map makes no promise); any other error, or any
		// divergence from the recorded state, fails.
		checkAt := func(op int, i int, sn snap, key uint64) {
			t.Helper()
			m, th, ts := maps[i], ths[i], sn.ts[i]
			mayTruncate := i == 2
			wantV, wantOK := sn.state[key]
			gotV, gotOK, err := m.GetAt(th, key, ts)
			if err != nil {
				if mayTruncate && err == ErrTruncatedHistory {
					return
				}
				t.Fatalf("%s op %d map %d: GetAt(%d, ts=%d): %v", label, op, i, key, ts, err)
			}
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("%s op %d map %d: GetAt(%d, ts=%d) = (%d,%v), model (%d,%v)",
					label, op, i, key, ts, gotV, gotOK, wantV, wantOK)
			}
			lo, hi := key, key+16*keyStride
			var want []KV
			for k, v := range sn.state {
				if k >= lo && k <= hi {
					want = append(want, KV{Key: k, Val: v})
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a].Key < want[b].Key })
			got, err := m.RangeQueryAt(th, lo, hi, ts, nil)
			if err != nil {
				if mayTruncate && err == ErrTruncatedHistory {
					return
				}
				t.Fatalf("%s op %d map %d: RangeQueryAt[%d,%d]@%d: %v", label, op, i, lo, hi, ts, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s op %d map %d: RangeQueryAt[%d,%d]@%d = %d pairs, model %d",
					label, op, i, lo, hi, ts, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] { // RangeQueryAt contract: ascending keys
					t.Fatalf("%s op %d map %d: RangeQueryAt[%d,%d]@%d [%d] = %v, model %v",
						label, op, i, lo, hi, ts, j, got[j], want[j])
				}
			}
			var scanned []KV
			if err := m.ScanAt(th, lo, hi, ts, func(kv KV) bool {
				scanned = append(scanned, kv)
				return true
			}); err != nil {
				if mayTruncate && err == ErrTruncatedHistory {
					return
				}
				t.Fatalf("%s op %d map %d: ScanAt[%d,%d]@%d: %v", label, op, i, lo, hi, ts, err)
			}
			for j := range scanned {
				if scanned[j] != want[j] { // ScanAt contract: ascending keys
					t.Fatalf("%s op %d map %d: ScanAt[%d,%d]@%d [%d] = %v, model %v",
						label, op, i, lo, hi, ts, j, scanned[j], want[j])
				}
			}
		}

		for i := 0; i+1 < len(tape); i += 2 {
			op := tape[i] % 6
			b := uint64(tape[i+1])
			key := b * keyStride
			switch op {
			case 0, 1:
				insert := op == 0
				_, exists := model[key]
				val := key*3 + uint64(i)
				for j, m := range maps {
					if insert {
						if got := m.Insert(ths[j], key, val); got == exists {
							t.Fatalf("%s op %d map %d: Insert(%d)=%v exists=%v", label, i, j, key, got, exists)
						}
					} else if got := m.Delete(ths[j], key); got != exists {
						t.Fatalf("%s op %d map %d: Delete(%d)=%v exists=%v", label, i, j, key, got, exists)
					}
				}
				if insert && !exists {
					model[key] = val
				} else if !insert {
					delete(model, key)
				}
				snaps = append(snaps, record(model))
			case 2, 3:
				// Historical read at a stamp of tape-chosen age: index 0 is
				// the pre-history stamp, the newest exercises the
				// ts == Now() inclusive boundary.
				sn := snaps[int(b)%len(snaps)]
				for j := range maps {
					checkAt(i, j, sn, key)
				}
			case 4:
				// Pre-history on every map: state before any update.
				for j := range maps {
					checkAt(i, j, snaps[0], key)
				}
			default:
				// Future timestamps must refuse on every map.
				for j, m := range maps {
					future := snaps[len(snaps)-1].ts[j] + 1000
					if _, _, err := m.GetAt(ths[j], key, future); err != ErrFutureTimestamp {
						t.Fatalf("%s op %d map %d: GetAt at future ts %d: err=%v, want ErrFutureTimestamp",
							label, i, j, future, err)
					}
				}
			}
		}
		// Final pass: every snapshot must still replay exactly on the
		// retain-everything maps.
		for si, sn := range snaps {
			for j := 0; j < 2; j++ {
				checkAt(-si, j, sn, uint64(si*13)%256*keyStride)
			}
		}
	})
}

// FuzzPooledAgainstModel is FuzzMapAgainstModel with Config.Alloc set to
// AllocPool and Drain interleaved into the op tape, on the EBR-RQ maps —
// the only ones whose epoch manager feeds the pool (the vCAS and Bundle
// cells are FuzzMapAgainstModel's). Drain forces retired nodes through
// limbo into the pool free lists, so subsequent inserts run on recycled
// memory — any field a constructor forgets to reset, or any node recycled
// while still reachable, surfaces as a model divergence or a crash. The
// tape is op byte mod 5 (insert, delete, contains, range, drain) and key
// byte pairs.
func FuzzPooledAgainstModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 4, 0, 0, 3, 0, 5})
	f.Add([]byte{0, 5, 0, 6, 0, 7, 1, 6, 4, 0, 0, 6, 3, 4})
	var seq []byte
	for i := 0; i < 96; i++ {
		seq = append(seq, byte(i%5), byte(i*11))
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 512 {
			tape = tape[:512]
		}
		for _, s := range []Structure{BST, Citrus, SkipList} {
			for _, tech := range []Technique{EBRRQ, EBRRQLockFree} {
				fuzzPooledCell(t, s, tech, tape)
			}
		}
	})
}

// fuzzPooledCell runs one FuzzPooledAgainstModel tape on a pooled s/tech map.
func fuzzPooledCell(t *testing.T, s Structure, tech Technique, tape []byte) {
	m, err := New(s, tech, Config{Source: Logical, MaxThreads: 2, Alloc: AllocPool})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Release()
	label := fmt.Sprintf("%v/%v", s, tech)
	model := map[uint64]uint64{}
	for i := 0; i+1 < len(tape); i += 2 {
		if op := tape[i] % 5; op < 4 {
			tapeStep(t, label, i, m, th, model, op, uint64(tape[i+1]), 16)
		} else {
			m.Drain() // recycle everything retired so far
		}
	}
	m.Drain()
	checkFinal(t, label, m, th, model)
}
