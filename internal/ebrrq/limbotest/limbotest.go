// Package limbotest is test support for the EBR-RQ structures: it checks
// on a real limbo population what ebrrq.Collector.AddLimbo's early exit
// assumes about it.
package limbotest

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
)

// Lost walks tq's limbo lists twice for every assigned deletion label
// taken as the snapshot bound, once with AddLimbo's early exit and once
// in full, and describes every node the early exit loses. The result is
// empty iff deletion labels never increase down any thread's list: an
// older node deleted later than a newer one is exactly what the early
// exit at the newer node's label walks away from. Quiescent use only.
func Lost[T any](tq *ebrrq.Technique[T]) []string {
	var bounds []core.TS
	tq.VisitLimbo(func(_, _ uint64, _, dtime *ebrrq.Label) bool {
		if d := dtime.Get(); d != core.Pending {
			bounds = append(bounds, d)
		}
		return true
	})
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)

	// collect gathers the limbo hits at bound s: with AddLimbo's early
	// exit, or offering every node to the visibility predicate.
	collect := func(s core.TS, earlyExit bool) []core.KV {
		c := ebrrq.NewCollector(nil, 0, ^uint64(0), s)
		tq.VisitLimbo(func(key, val uint64, itime, dtime *ebrrq.Label) bool {
			return c.AddLimbo(key, val, itime, dtime) || !earlyExit
		})
		return c.Finish()
	}
	var lost []string
	for _, s := range bounds {
		early, full := collect(s, true), collect(s, false)
		for _, kv := range full {
			_, ok := slices.BinarySearchFunc(early, kv.Key, func(e core.KV, k uint64) int {
				return cmp.Compare(e.Key, k)
			})
			if !ok {
				lost = append(lost, fmt.Sprintf("bound %d: early exit loses key %d", s, kv.Key))
			}
		}
	}
	return lost
}

// Map is what Churn drives: the update and range-query surface the
// EBR-RQ structures share.
type Map interface {
	Insert(th *core.Thread, key, val uint64) bool
	Delete(th *core.Thread, key uint64) bool
	RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV
}

// Churn fills m's limbo lists for inspection: workers goroutines run
// opsEach random deletes, inserts and short range queries (which advance
// a logical source, so labels differ) over keys 1..64 — few enough that
// every update contends — while one more handle holds a range-query
// reservation, so nothing retired is pruned. reg needs workers+1 free
// slots.
func Churn(m Map, reg *core.Registry, workers, opsEach int) {
	reg.MustRegister().BeginRQ()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := reg.MustRegister()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < opsEach; i++ {
				k := uint64(1 + rng.Intn(64))
				switch rng.Intn(8) {
				case 0:
					m.RangeQuery(th, k, k+8, nil)
				case 1, 2, 3:
					m.Insert(th, k, k)
				default:
					m.Delete(th, k)
				}
			}
		}(w)
	}
	wg.Wait()
}
