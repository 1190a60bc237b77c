package tscds_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tscds"
	"tscds/internal/bench"
)

// orderShape is one order-theoretic check of range-query linearizability:
// its writers update the map in an order every consistent snapshot
// reflects, and check judges each snapshot of [1, hi(n)]. A torn snapshot
// (one range query mixing two points in time) breaks the order.
type orderShape struct {
	name string
	// keys is the shape's key count n, looked up by arm, then by
	// structure, then under "".
	keys     map[string]uint64
	hi       func(n uint64) uint64
	shuffled bool // fill 1..n in random order before the writers start
	writers  func(m tscds.Map, n uint64) []writer
	// check reports whether the reader has seen enough; after the
	// writers finish, the next snapshot it judges must be enough. A shape
	// with snaps set stops after that many snapshots instead.
	check func(kvs []tscds.KV, n uint64) (bool, error)
	snaps int
}

// writer updates the map on its own thread handle; a writer that does not
// stop by itself runs until stop is set.
type writer func(th *tscds.Thread, stop *atomic.Bool)

var orderShapes = []orderShape{
	{
		// One writer inserts ascending keys: a snapshot is a prefix.
		name: "prefix",
		keys: map[string]uint64{"": 2500, "citrus": 3000, "bst/vcas": 6000, "skiplist/bundle": 4000},
		hi:   func(n uint64) uint64 { return n },
		writers: func(m tscds.Map, n uint64) []writer {
			return []writer{ascending(m, n, 1, 1, m.Insert)}
		},
		check: func(kvs []tscds.KV, n uint64) (bool, error) {
			return uint64(len(kvs)) == n, stepped(kvs, 1, 1)
		},
	},
	{
		// One writer deletes ascending keys from a map filled in random
		// order, so an EBR-RQ query finds some of them only in limbo: a
		// snapshot is a suffix.
		name: "suffix", shuffled: true,
		keys: map[string]uint64{"": 2000, "bst": 2500, "bst/vcas": 5000, "skiplist/bundle": 4000},
		hi:   func(n uint64) uint64 { return n },
		writers: func(m tscds.Map, n uint64) []writer {
			return []writer{ascending(m, n, 1, 1, func(th *tscds.Thread, k, _ uint64) bool {
				return m.Delete(th, k)
			})}
		},
		check: func(kvs []tscds.KV, n uint64) (bool, error) {
			if len(kvs) == 0 {
				return true, nil
			}
			if last := kvs[len(kvs)-1].Key; last != n {
				return false, fmt.Errorf("suffix ends at %d, want %d", last, n)
			}
			return false, stepped(kvs, kvs[0].Key, 1)
		},
	},
	{
		// A writer deletes and reinserts odd keys of a map filled in
		// random order (two-child deletes in the trees): each of 60
		// snapshots holds every even key once.
		name: "stripe", shuffled: true,
		keys: map[string]uint64{"": 1000, "citrus": 2000},
		hi:   func(n uint64) uint64 { return n },
		writers: func(m tscds.Map, n uint64) []writer {
			return []writer{func(th *tscds.Thread, stop *atomic.Bool) {
				for r := rand.New(rand.NewSource(11)); !stop.Load(); {
					if k := uint64(r.Int63n(int64(n/2)))*2 + 1; m.Delete(th, k) {
						m.Insert(th, k, k)
					}
				}
			}}
		},
		check: func(kvs []tscds.KV, n uint64) (bool, error) {
			var evens []tscds.KV
			for _, kv := range kvs {
				if kv.Key%2 == 0 {
					evens = append(evens, kv)
				}
			}
			if uint64(len(evens)) != n/2 {
				return false, fmt.Errorf("snapshot holds %d even keys, want %d", len(evens), n/2)
			}
			return false, stepped(evens, 2, 2)
		},
		snaps: 60,
	},
	{
		// Two writers insert ascending keys, one on the even stripe and one
		// on the odd: a snapshot is a prefix of each stripe.
		name: "per-stripe",
		keys: map[string]uint64{"": 1000, "bst/vcas": 3000},
		hi:   func(n uint64) uint64 { return 2*n + 1 },
		writers: func(m tscds.Map, n uint64) []writer {
			return []writer{ascending(m, n, 2, 2, m.Insert), ascending(m, n, 3, 2, m.Insert)}
		},
		check: func(kvs []tscds.KV, n uint64) (bool, error) {
			var stripes [2][]tscds.KV
			for _, kv := range kvs {
				stripes[kv.Key%2] = append(stripes[kv.Key%2], kv)
			}
			err := stepped(stripes[0], 2, 2)
			if err == nil {
				err = stepped(stripes[1], 3, 2)
			}
			return uint64(len(kvs)) == 2*n, err
		},
	},
}

// n is the shape's key count on arm.
func (sh orderShape) n(arm string) uint64 {
	structure, _, _ := strings.Cut(arm, "/")
	for _, k := range []string{arm, structure, ""} {
		if n, ok := sh.keys[k]; ok {
			return n
		}
	}
	return 0
}

// ascending returns a writer that applies op to n keys from first, step
// apart, in ascending order.
func ascending(m tscds.Map, n, first, step uint64, op func(*tscds.Thread, uint64, uint64) bool) writer {
	return func(th *tscds.Thread, _ *atomic.Bool) {
		for i, k := uint64(0), first; i < n; i, k = i+1, k+step {
			op(th, k, k)
		}
	}
}

// stepped fails unless kvs holds first, first+step, first+2*step, ...
// in that order.
func stepped(kvs []tscds.KV, first, step uint64) error {
	for i, kv := range kvs {
		if want := first + uint64(i)*step; kv.Key != want {
			return fmt.Errorf("position %d holds %d, want %d", i, kv.Key, want)
		}
	}
	return nil
}

// TestSnapshotOrder runs every orderShape on every arm tscds.New accepts,
// over a logical and a hardware source, each cell on a fresh map and in
// parallel with the others. A cell does a fixed amount of work: one pass
// of its writers, or the stripe shape's 60 snapshots. Lock-free EBR-RQ
// validates its timestamp at an address, so New must refuse it a hardware
// source.
func TestSnapshotOrder(t *testing.T) {
	for _, arm := range bench.Arms() {
		s, tech, err := bench.ParseArm(arm)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []tscds.SourceKind{tscds.Logical, tscds.TSC} {
			for _, sh := range orderShapes {
				t.Run(arm+"/"+src.String()+"/"+sh.name, func(t *testing.T) {
					t.Parallel()
					m, err := tscds.New(s, tech, tscds.Config{Source: src, MaxThreads: 8})
					if tech == tscds.EBRRQLockFree && src != tscds.Logical {
						if err == nil {
							t.Fatal("New accepted a hardware source")
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					raceOrder(t, m, sh, sh.n(arm))
					requireShape(t, m, true)
				})
			}
		}
	}
}

// raceOrder fills m if the shape asks for it, then runs the shape's
// writers against one reader that judges every snapshot until check says
// it has seen enough.
func raceOrder(t *testing.T, m tscds.Map, sh orderShape, n uint64) {
	if sh.shuffled {
		th := mustThread(t, m)
		for _, i := range rand.New(rand.NewSource(5)).Perm(int(n)) {
			m.Insert(th, uint64(i+1), uint64(i+1))
		}
		th.Release()
	}
	var stop atomic.Bool
	var writing sync.WaitGroup
	for _, w := range sh.writers(m, n) {
		th := mustThread(t, m)
		writing.Add(1)
		go func() {
			defer writing.Done()
			defer th.Release()
			w(th, &stop)
		}()
	}
	var written atomic.Bool
	go func() { writing.Wait(); written.Store(true) }()

	th := mustThread(t, m)
	defer th.Release()
	defer writing.Wait()
	defer stop.Store(true)
	var buf []tscds.KV
	for snap := 1; ; snap++ {
		last := written.Load()
		buf = m.RangeQuery(th, 1, sh.hi(n), buf[:0])
		done, err := sh.check(buf, n)
		for i := 1; i < len(buf) && err == nil; i++ {
			if buf[i].Key <= buf[i-1].Key {
				err = fmt.Errorf("key %d follows %d", buf[i].Key, buf[i-1].Key)
			}
		}
		switch {
		case err != nil:
			t.Fatalf("torn snapshot of %d keys: %v", len(buf), err)
		case done || snap == sh.snaps:
			return
		case last:
			t.Fatalf("snapshot after the writers finished holds %d keys", len(buf))
		}
	}
}

func mustThread(t *testing.T, m tscds.Map) *tscds.Thread {
	t.Helper()
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	return th
}
