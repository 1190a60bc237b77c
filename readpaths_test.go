package tscds

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tscds/internal/core"
	"tscds/internal/wal"
)

// TestReadPathsAgree: every range-shaped read is the one snapshot-read
// protocol behind a different adapter, so on a quiescent map they must
// return the same pairs in the same ascending key order — RangeQuery,
// Scan, RangeQueryAt and ScanAt at Now(), and the pairs a Checkpoint
// wrote — for every supported cell, flat and sharded, over the whole key
// space (wider than the shards' blocks: the Reader sorts), an interval
// inside one key block and one straddling the boundary of blocks 7 and 8,
// where the shards' rotation wraps to shard 0.
func TestReadPathsAgree(t *testing.T) {
	for _, c := range allCombos() {
		for _, shards := range []int{0, 2, 4} {
			t.Run(fmt.Sprintf("%v-%v-s%d", c.S, c.T, shards), func(t *testing.T) {
				dir := t.TempDir()
				met := NewMetrics()
				cfg := Config{Source: TSC, MaxThreads: 4, Metrics: met, Durability: &Durability{Dir: dir, SyncEvery: 64}}
				var m DurableMap
				if shards == 0 {
					plain, err := New(c.S, c.T, cfg)
					if err != nil {
						t.Fatal(err)
					}
					m = plain.(DurableMap)
				} else {
					sharded, err := NewSharded(c.S, c.T, shards, cfg)
					if err != nil {
						t.Fatal(err)
					}
					m = sharded
				}
				th, err := m.RegisterThread()
				if err != nil {
					t.Fatal(err)
				}
				// 300 keys over 12 key blocks: three of every shard at 4.
				model := map[uint64]uint64{}
				for i := uint64(0); i < 300; i++ {
					k := i * 7919 % 1000 * 3
					if m.Insert(th, k, i) {
						model[k] = i
					}
				}
				for k := range model {
					if k%9 == 0 { // a third of them
						m.Delete(th, k)
						delete(model, k)
					}
				}
				m.Insert(th, MaxKey, 7)
				model[MaxKey] = 7

				ts := m.Now()
				for _, iv := range [][2]uint64{{0, ^uint64(0)}, {36, 39}, {2000, 2100}, {500, 400}} {
					lo, hi := iv[0], iv[1]
					var want []KV
					for k, v := range model {
						if lo <= k && k <= hi {
							want = append(want, KV{Key: k, Val: v})
						}
					}
					core.SortKVs(want)
					same := func(path string, got []KV) {
						t.Helper()
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s[%d,%d] = %d pairs %v\nwant %d pairs %v", path, lo, hi, len(got), got, len(want), want)
						}
					}
					same("RangeQuery", m.RangeQuery(th, lo, hi, nil))
					var scanned []KV
					m.Scan(th, lo, hi, func(kv KV) bool { scanned = append(scanned, kv); return true })
					same("Scan", scanned)

					at, err := m.RangeQueryAt(th, lo, hi, ts, nil)
					var scannedAt []KV
					errScan := m.ScanAt(th, lo, hi, ts, func(kv KV) bool { scannedAt = append(scannedAt, kv); return true })
					if c.T == EBRRQ {
						if !errors.Is(err, ErrHistoryUnsupported) || !errors.Is(errScan, ErrHistoryUnsupported) {
							t.Errorf("historical reads on EBR-RQ: err %v and %v, want ErrHistoryUnsupported", err, errScan)
						}
						continue
					}
					if err != nil || errScan != nil {
						t.Fatalf("RangeQueryAt/ScanAt at Now(): %v, %v", err, errScan)
					}
					same("RangeQueryAt", at)
					same("ScanAt", scannedAt)
				}

				if shards > 0 {
					for i, sh := range met.Snapshot().Shards {
						if sh.Ops == 0 || sh.RQs == 0 {
							t.Errorf("shard %d served %d point ops and %d range queries, want some of each", i, sh.Ops, sh.RQs)
						}
					}
				}
				if err := m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				th.Release()
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				log, recov, err := wal.Open(wal.Options{Dir: dir, Shards: max(shards, 1), SyncEvery: 64})
				if err != nil {
					t.Fatal(err)
				}
				defer log.Close()
				if recov.Stats.Replayed != 0 {
					t.Errorf("%d records left to replay over a checkpoint of a quiescent map", recov.Stats.Replayed)
				}
				wrote := map[uint64]uint64{}
				for i, p := range recov.Pairs {
					if i > 0 && p.Key <= recov.Pairs[i-1].Key {
						t.Fatalf("Checkpoint wrote key %d after %d", p.Key, recov.Pairs[i-1].Key)
					}
					wrote[p.Key] = p.Val
				}
				if len(wrote) != len(recov.Pairs) || !reflect.DeepEqual(wrote, model) {
					t.Errorf("Checkpoint wrote %d pairs (%d distinct), the map holds %d", len(recov.Pairs), len(wrote), len(model))
				}
			})
		}
	}
}
