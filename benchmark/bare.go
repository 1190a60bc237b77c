package main

import (
	"fmt"
	"time"

	"tscds"
	"tscds/internal/citrus"
	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/lfbst"
	"tscds/internal/skiplist"
)

// This file is the only code of the benchmark that reaches into the
// internal/* structures: the bare-structure metrics and the ladder's bare
// rung. Everything above it sees a structure through kvOps.

// kvOps is the three-method adapter the one-worker layer measurements drive:
// a bare internal structure and a facade map look the same through it.
type kvOps interface {
	update(key uint64, insert bool) bool
	contains(key uint64) bool
	rangeQuery(lo, hi uint64, buf []tscds.KV) []tscds.KV
}

// bareStructure is what lfbst.Tree, skiplist.List and citrus.EBRTree share.
type bareStructure interface {
	Insert(th *core.Thread, key, val uint64) bool
	Delete(th *core.Thread, key uint64) bool
	Contains(th *core.Thread, key uint64) bool
	RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV
}

type bareOps struct {
	s     bareStructure
	th    *core.Thread
	shift uint64 // the skip list reserves key 0 for its head sentinel
}

// newBare builds the arm's internal structure on a TSC source with its own
// registry, as the facade's buildInner would, without the facade.
func newBare(a *arm) (kvOps, error) {
	reg := core.NewRegistry(0)
	src := core.New(core.TSC)
	b := &bareOps{th: reg.MustRegister()}
	switch a.bare {
	case "lfbst":
		b.s = lfbst.New(src, reg)
	case "skiplist":
		b.s, b.shift = skiplist.New(src, reg), 1
	case "citrus":
		t, err := citrus.NewEBR(src, reg, ebrrq.LockBased)
		if err != nil {
			return nil, err
		}
		b.s = t
	default:
		return nil, fmt.Errorf("no bare structure %q", a.bare)
	}
	return b, nil
}

func (b *bareOps) update(key uint64, insert bool) bool {
	if insert {
		return b.s.Insert(b.th, key+b.shift, key)
	}
	return b.s.Delete(b.th, key+b.shift)
}

func (b *bareOps) contains(key uint64) bool { return b.s.Contains(b.th, key+b.shift) }

func (b *bareOps) rangeQuery(lo, hi uint64, buf []tscds.KV) []tscds.KV {
	return b.s.RangeQuery(b.th, lo+b.shift, hi+b.shift, buf)
}

// facadeOps drives a public Map through the same adapter.
type facadeOps struct {
	m  tscds.Map
	th *tscds.Thread
}

func (f *facadeOps) update(key uint64, insert bool) bool {
	if insert {
		return f.m.Insert(f.th, key, key)
	}
	return f.m.Delete(f.th, key)
}

func (f *facadeOps) contains(key uint64) bool { return f.m.Contains(f.th, key) }

func (f *facadeOps) rangeQuery(lo, hi uint64, buf []tscds.KV) []tscds.KV {
	return f.m.RangeQuery(f.th, lo, hi, buf)
}

// bareLayers times the three bare structures with one worker at the
// paper-mix size: a Contains, an update, and a 1,000-key range query per
// key returned, in nanoseconds.
func bareLayers(ms metricSet, seed uint64, sp *spans, parent int) error {
	w := theWorkload("paper-mix")
	const scanLen = 1000
	ops := w.trialOps / 2
	scans := max(ops/64, 1)
	keys := prefillKeys(seed, w.keyRange)
	for ai := range arms {
		a := &arms[ai]
		id := sp.begin("bare "+a.bare, parent, -1, 0)
		s, err := newBare(a)
		if err != nil {
			return err
		}
		for _, k := range keys {
			s.update(k, true)
		}
		g := newRNG(seed, streamTape, uint64(ai))
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			s.contains(g.next() >> 8 % w.keyRange)
		}
		t1 := time.Now()
		for i := 0; i < ops; i++ {
			r := g.next()
			s.update(r>>8%w.keyRange, r>>63 == 1)
		}
		t2 := time.Now()
		var buf []tscds.KV
		returned := 0
		for i := 0; i < scans; i++ {
			lo := g.next() >> 8 % w.keyRange
			buf = s.rangeQuery(lo, lo+scanLen-1, buf[:0])
			returned += len(buf)
		}
		t3 := time.Now()
		containsNS := float64(t1.Sub(t0)) / float64(ops)
		updateNS := float64(t2.Sub(t1)) / float64(ops)
		rqNS := float64(t3.Sub(t2)) / float64(max(returned, 1))
		ms.put(a.bare+".contains_ns", containsNS, "ns")
		ms.put(a.bare+".update_ns", updateNS, "ns")
		ms.put(a.bare+".rq_ns_per_key", rqNS, "ns")
		sp.end(id, "contains_ns", containsNS, "update_ns", updateNS, "rq_ns_per_key", rqNS)
	}
	return nil
}
