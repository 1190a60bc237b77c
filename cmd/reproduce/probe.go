package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tscds"
	"tscds/internal/bench"
)

// probes are three order-theoretic checks of range-query linearizability;
// any torn snapshot — a range query mixing two points in time — fails one.
var probes = []struct {
	name string
	fn   func(tscds.Map, uint64, time.Duration) error
}{{"prefix", prefixProbe}, {"suffix", suffixProbe}, {"stripe", stripeProbe}}

// probe runs every probe on every arm tscds.New accepts (or on -arm), on
// each source the arm supports, and fails if any probe did.
func probe(w io.Writer, o *options) error {
	arms := bench.Arms()
	if o.arm != "" {
		arms = []string{o.arm}
	}
	failures := 0
	for _, spec := range arms {
		s, t, err := bench.ParseArm(spec)
		if err != nil {
			return err
		}
		for _, src := range sources {
			for _, p := range probes {
				m, err := tscds.New(s, t, tscds.Config{Source: src, MaxThreads: 64})
				if err != nil {
					// Lock-free EBR-RQ validates its timestamp at an address:
					// no hardware source, by the paper's incompatibility result.
					fmt.Fprintf(w, "skip %-24s %-8s %v\n", spec, src, err)
					break
				}
				n := o.keyRange
				if s == tscds.LazyList && n > 800 {
					n = 800 // O(n) traversals
				}
				if err := p.fn(m, n, o.duration); err != nil {
					fmt.Fprintf(w, "FAIL %-24s %-8s %-7s %v\n", spec, src, p.name, err)
					failures++
				} else {
					fmt.Fprintf(w, "ok   %-24s %-8s %-7s\n", spec, src, p.name)
				}
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d probe(s) failed", failures)
	}
	return nil
}

func sortedKeys(kvs []tscds.KV) []uint64 {
	keys := make([]uint64, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// race runs a writer and a range-query checker to completion on their own
// thread handles and returns the checker's verdict.
func race(m tscds.Map, write func(*tscds.Thread), check func(*tscds.Thread) error) error {
	var wg sync.WaitGroup
	var verdict error
	wg.Add(2)
	go func() {
		defer wg.Done()
		th, _ := m.RegisterThread()
		defer th.Release()
		write(th)
	}()
	go func() {
		defer wg.Done()
		th, _ := m.RegisterThread()
		defer th.Release()
		verdict = check(th)
	}()
	wg.Wait()
	return verdict
}

// prefixProbe: one writer inserts ascending keys; every snapshot must be
// a prefix of the insertion order.
func prefixProbe(m tscds.Map, n uint64, d time.Duration) error {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		err := race(m, func(th *tscds.Thread) {
			for k := uint64(1); k <= n; k++ {
				m.Insert(th, k, k)
			}
		}, func(th *tscds.Thread) error {
			for {
				keys := sortedKeys(m.RangeQuery(th, 1, n, nil))
				for i, k := range keys {
					if k != uint64(i+1) {
						return fmt.Errorf("snapshot not a prefix: position %d holds %d", i, k)
					}
				}
				if uint64(len(keys)) == n {
					return nil
				}
			}
		})
		if err != nil {
			return err
		}
		// Clear for the next round.
		th, _ := m.RegisterThread()
		for k := uint64(1); k <= n; k++ {
			m.Delete(th, k)
		}
		th.Release()
	}
	return nil
}

// suffixProbe: one writer deletes ascending keys from a full map; every
// snapshot must be a suffix.
func suffixProbe(m tscds.Map, n uint64, d time.Duration) error {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		th, _ := m.RegisterThread()
		for k := uint64(1); k <= n; k++ {
			m.Insert(th, k, k)
		}
		th.Release()
		err := race(m, func(th *tscds.Thread) {
			for k := uint64(1); k <= n; k++ {
				m.Delete(th, k)
			}
		}, func(th *tscds.Thread) error {
			for {
				keys := sortedKeys(m.RangeQuery(th, 1, n, nil))
				if len(keys) == 0 {
					return nil
				}
				for i, k := range keys {
					if k != keys[0]+uint64(i) {
						return fmt.Errorf("snapshot not a suffix at %d: %d (first %d)", i, k, keys[0])
					}
				}
				if keys[len(keys)-1] != n {
					return fmt.Errorf("suffix missing tail: ends at %d", keys[len(keys)-1])
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// stripeProbe: random churn on odd keys; even keys must always appear
// exactly once, with no duplicates anywhere.
func stripeProbe(m tscds.Map, n uint64, d time.Duration) error {
	th, _ := m.RegisterThread()
	for k := uint64(1); k <= n; k++ {
		m.Insert(th, k, k)
	}
	th.Release()
	var stop atomic.Bool
	return race(m, func(th *tscds.Thread) {
		for r := uint64(0xDECAF); !stop.Load(); {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			if k := r%n + 1; k%2 == 1 && m.Delete(th, k) {
				m.Insert(th, k, k)
			}
		}
	}, func(th *tscds.Thread) error {
		defer stop.Store(true)
		for deadline := time.Now().Add(d); time.Now().Before(deadline); {
			seen := map[uint64]bool{}
			evens := uint64(0)
			for _, kv := range m.RangeQuery(th, 1, n, nil) {
				if seen[kv.Key] {
					return fmt.Errorf("duplicate key %d in snapshot", kv.Key)
				}
				seen[kv.Key] = true
				if kv.Key%2 == 0 {
					evens++
				}
			}
			if evens != n/2 {
				return fmt.Errorf("stable stripe incomplete: %d even keys, want %d", evens, n/2)
			}
		}
		return nil
	})
}
