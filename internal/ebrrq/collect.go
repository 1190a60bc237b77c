package ebrrq

import (
	"slices"

	"tscds/internal/core"
)

// Collector gathers one EBR-RQ range query's snapshot straight into the
// caller's buffer: the structure's in-order traversal offers every node
// it meets to Add, the limbo walk offers every retired node to AddLimbo,
// and Finish returns the buffer. Nothing is allocated beyond what append
// needs when the buffer is too small.
//
// The same key can legally arrive more than once — nodes are retired
// before they are unlinked, so a traversal and the limbo walk may both
// meet one node, and Citrus's two-children delete briefly exposes the
// successor and its copy — so the collection must be de-duplicated. An
// in-order traversal that saw no such overlap is already strictly
// increasing; Add tracks that while appending, and Finish sorts and
// compacts only when the order broke or limbo contributed a hit.
// Duplicates always carry the same value: two distinct nodes for one key
// have disjoint [itime, dtime) lifetimes unless one is the other's copy.
//
// out[:base] belongs to the caller (the sharded fan-out appends shard
// after shard into one slice) and is never reordered.
type Collector struct {
	out    []core.KV
	base   int
	lo, hi uint64
	s      core.TS
	dirty  bool // out[base:] may be out of order or hold duplicates
}

// NewCollector starts a collection of [lo, hi] at snapshot bound s,
// appending to out.
func NewCollector(out []core.KV, lo, hi uint64, s core.TS) Collector {
	return Collector{out: out, base: len(out), lo: lo, hi: hi, s: s}
}

// Add offers a node reached by the structure's traversal; it is kept if
// its key is in range and its labels make it visible at the bound.
func (c *Collector) Add(key, val uint64, itime, dtime *Label) {
	if key < c.lo || key > c.hi || !VisibleAt(itime.Get(), dtime.Get(), c.s) {
		return
	}
	if n := len(c.out); n > c.base && c.out[n-1].Key >= key {
		c.dirty = true
	}
	c.out = append(c.out, core.KV{Key: key, Val: val})
}

// AddLimbo offers a retired node during epoch.Manager.WalkLimbo and
// returns the walk's verdict: false ends the current thread's list.
//
// Deletion labels never increase down one thread's limbo list (newest
// retirement first): every structure sees a node it retired labeled
// before it retires the next, and epoch's prune drops whole suffixes on
// the same ground. So the first node deleted at or before the bound ends
// the list — everything older was deleted earlier still. A dtime still
// Pending (retired, label not yet written) proves nothing about older
// nodes and keeps the walk going.
func (c *Collector) AddLimbo(key, val uint64, itime, dtime *Label) bool {
	d := dtime.Get()
	if d != core.Pending && d <= c.s {
		return false
	}
	if key >= c.lo && key <= c.hi && VisibleAt(itime.Get(), d, c.s) {
		c.out = append(c.out, core.KV{Key: key, Val: val})
		c.dirty = true
	}
	return true
}

// Finish returns the buffer with out[base:] free of duplicate keys (and
// in ascending key order).
func (c *Collector) Finish() []core.KV {
	if c.dirty {
		part := c.out[c.base:]
		core.SortKVs(part)
		part = slices.CompactFunc(part, func(a, b core.KV) bool { return a.Key == b.Key })
		c.out = c.out[:c.base+len(part)]
	}
	return c.out
}
