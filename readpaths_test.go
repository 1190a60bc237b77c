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
// return the same set — RangeQuery, Scan, RangeQueryAt and ScanAt at
// Now(), and the pairs a Checkpoint wrote — for every supported cell, flat
// and sharded, over the whole key space and over an interval narrower
// than the shard count (which only some shards hold keys of).
func TestReadPathsAgree(t *testing.T) {
	for _, c := range allCombos() {
		for _, shards := range []int{0, 2, 4} {
			t.Run(fmt.Sprintf("%v-%v-s%d", c.S, c.T, shards), func(t *testing.T) {
				dir := t.TempDir()
				cfg := Config{Source: TSC, MaxThreads: 4, Durability: &Durability{Dir: dir, SyncEvery: 64}}
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
				model := map[uint64]uint64{}
				for i := uint64(0); i < 300; i++ {
					k := i * 7919 % 1000
					if m.Insert(th, k, i) {
						model[k] = i
					}
				}
				for k := range model {
					if k%3 == 0 {
						m.Delete(th, k)
						delete(model, k)
					}
				}
				m.Insert(th, MaxKey, 7)
				model[MaxKey] = 7

				ts := m.Now()
				for _, iv := range [][2]uint64{{0, ^uint64(0)}, {37, 38}, {500, 400}} {
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
						core.SortKVs(got)
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
				for _, p := range recov.Pairs {
					wrote[p.Key] = p.Val
				}
				if len(wrote) != len(recov.Pairs) || !reflect.DeepEqual(wrote, model) {
					t.Errorf("Checkpoint wrote %d pairs (%d distinct), the map holds %d", len(recov.Pairs), len(wrote), len(model))
				}
			})
		}
	}
}
