package linearize

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrNotLinearizable is wrapped by every violation Check reports, so
// callers can errors.Is against it.
var ErrNotLinearizable = errors.New("linearize: history is not linearizable")

// maxReported caps how many violations one Check call details.
const maxReported = 8

// orderBudget bounds the per-key witness-order search. The structures
// under test serialize successful updates per key, so the sorted-by-
// invocation order almost always succeeds immediately; the budget only
// guards against pathological interval overlap.
const orderBudget = 1 << 20

// maxOrders bounds how many admissible orders of one key's updates are
// held against that key's reads. Two orders exist only where an insert, a
// delete and another insert of one key all overlap in real time, which
// takes a stalled thread; several such knots on one key are rarer still.
const maxOrders = 64

// upd is one successful update in a per-key replay.
type upd struct {
	e      *Event
	insert bool
}

// version is one lifetime of a key: created by a successful insert,
// ended by the matching successful delete (or never). est/lst bound the
// linearization points: the insert linearized in [estStart, lstStart],
// the delete in [estEnd, lstEnd] (both MaxInt64 when the version is
// never deleted).
type version struct {
	val                uint64
	estStart, lstStart int64
	estEnd, lstEnd     int64
}

// possiblyIn reports whether the version may be present at some instant
// of [a, b]: its insert can linearize at or before b and its delete at
// or after a. Boundary ties are resolved generously — the checker must
// never report a violation a real interleaving could explain.
func (v *version) possiblyIn(a, b int64) bool {
	return v.estStart <= b && v.lstEnd >= a
}

// span is a closed integer interval of nanosecond stamps.
type span struct{ a, b int64 }

// covers reports whether the union of spans covers every instant of
// [a, b].
func covers(spans []span, a, b int64) bool {
	sort.Slice(spans, func(i, j int) bool { return spans[i].a < spans[j].a })
	cur := a // first instant not yet covered
	for _, s := range spans {
		if s.a > cur {
			return false
		}
		if s.b >= cur {
			if s.b == math.MaxInt64 {
				return true
			}
			cur = s.b + 1
		}
		if cur > b {
			return true
		}
	}
	return cur > b
}

// certainSpan returns the closed interval during which the version is
// certainly present (empty span with a > b when there is none), clipped
// to [t0, t1]. Strict interiors are used so boundary ties never create
// false certainty.
func (v *version) certainSpan(t0, t1 int64) (span, bool) {
	a := v.lstStart + 1
	b := int64(math.MaxInt64)
	if v.estEnd != math.MaxInt64 {
		b = v.estEnd - 1
	}
	if a < t0 {
		a = t0
	}
	if b > t1 {
		b = t1
	}
	return span{a, b}, a <= b
}

// possiblyAbsentIn reports whether some instant of [a, b] exists at
// which the key (with lifetimes vs) may be absent.
func possiblyAbsentIn(vs []version, a, b int64) bool {
	var certain []span
	for i := range vs {
		if s, ok := vs[i].certainSpan(a, b); ok {
			certain = append(certain, s)
		}
	}
	return !covers(certain, a, b)
}

// checker holds the reconstructed per-key version timelines.
type checker struct {
	versions map[uint64][]version
	keys     []uint64 // sorted key universe (every key ever inserted)
}

// keysIn returns the universe keys within [lo, hi].
func (c *checker) keysIn(lo, hi uint64) []uint64 {
	i := sort.Search(len(c.keys), func(i int) bool { return c.keys[i] >= lo })
	j := sort.Search(len(c.keys), func(j int) bool { return c.keys[j] > hi })
	return c.keys[i:j]
}

// findVersion returns the version of key holding val, or nil.
func (c *checker) findVersion(key, val uint64) *version {
	vs := c.versions[key]
	for i := range vs {
		if vs[i].val == val {
			return &vs[i]
		}
	}
	return nil
}

// eachOrder calls visit with every linearization order of one key's
// successful updates — alternating insert/delete starting from absent,
// consistent with real time (an op wholly preceding another in wall clock
// must precede it in the order) — until visit returns true or the search
// budget is spent, and reports whether visit accepted one. Invocation
// order comes first; alternatives exist only where intervals overlap.
// visit must not keep the slice.
func eachOrder(ops []upd, visit func(order []upd) bool) bool {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].e.Inv < ops[j].e.Inv })
	n := len(ops)
	used := make([]bool, n)
	order := make([]upd, 0, n)
	budget := orderBudget
	var rec func(present bool) bool
	rec = func(present bool) bool {
		if len(order) == n {
			return visit(order)
		}
		if budget <= 0 {
			return false
		}
		budget--
		minRet := int64(math.MaxInt64)
		for i := 0; i < n; i++ {
			if !used[i] && ops[i].e.Ret < minRet {
				minRet = ops[i].e.Ret
			}
		}
		for i := 0; i < n; i++ {
			// A candidate may linearize first only if no unused op's
			// interval ends strictly before the candidate's begins, and
			// only if it respects the alternation.
			if used[i] || ops[i].e.Inv > minRet || ops[i].insert == present {
				continue
			}
			used[i] = true
			order = append(order, ops[i])
			if rec(ops[i].insert) {
				return true
			}
			order = order[:len(order)-1]
			used[i] = false
		}
		return false
	}
	return rec(false)
}

// timelines returns the version timelines of up to maxOrders admissible
// orders of one key's successful updates, invocation order first; none
// means the updates admit no sequential execution at all.
func timelines(ops []upd) [][]version {
	var out [][]version
	eachOrder(ops, func(order []upd) bool {
		if vs, ok := versionsOf(order); ok {
			out = append(out, vs)
		}
		return len(out) == maxOrders
	})
	return out
}

// explains reports whether c's timeline of key justifies ev, one of the
// key's reads. A range query is held to its projection on the key — the
// pair it reported for it, or its absence — which every order that the
// full snapshot test could accept must pass.
func (c *checker) explains(key uint64, ev *Event) bool {
	if ev.Op != OpRange && ev.Op != OpRangeAt {
		return c.checkEvent(ev) == ""
	}
	a, b := ev.Inv, ev.Ret
	if ev.Op == OpRangeAt {
		if ev.Trunc {
			return true
		}
		a, b = ev.TSInv, ev.TSRet
	}
	for _, kv := range ev.KVs {
		if kv.Key == key {
			v := c.findVersion(key, kv.Val)
			return v != nil && v.possiblyIn(a, b)
		}
	}
	return possiblyAbsentIn(c.versions[key], a, b)
}

// versionsOf converts a witness order into version lifetimes with
// est/lst linearization bounds: est is the earliest feasible point
// (weakly increasing along the order), lst the latest (weakly
// decreasing from the tail).
func versionsOf(order []upd) ([]version, bool) {
	n := len(order)
	est := make([]int64, n)
	lst := make([]int64, n)
	for i := 0; i < n; i++ {
		est[i] = order[i].e.Inv
		if i > 0 && est[i-1] > est[i] {
			est[i] = est[i-1]
		}
	}
	for i := n - 1; i >= 0; i-- {
		lst[i] = order[i].e.Ret
		if i < n-1 && lst[i+1] < lst[i] {
			lst[i] = lst[i+1]
		}
	}
	for i := 0; i < n; i++ {
		if est[i] > lst[i] {
			return nil, false
		}
	}
	var vs []version
	for i := 0; i < n; i++ {
		if !order[i].insert {
			continue
		}
		v := version{
			val:      order[i].e.Val,
			estStart: est[i], lstStart: lst[i],
			estEnd: math.MaxInt64, lstEnd: math.MaxInt64,
		}
		if i+1 < n {
			v.estEnd, v.lstEnd = est[i+1], lst[i+1]
		}
		vs = append(vs, v)
	}
	return vs, true
}

// Check replays the history and reports every way it fails to be
// linearizable (capped), or nil if a sequential witness exists for all
// observations.
func Check(h *History) error {
	// Reconstruct per-key update timelines from successful updates.
	perKey := make(map[uint64][]upd)
	for _, log := range h.Threads {
		for i := range log {
			ev := &log[i]
			if (ev.Op == OpInsert || ev.Op == OpDelete) && ev.OK {
				perKey[ev.Key] = append(perKey[ev.Key], upd{e: ev, insert: ev.Op == OpInsert})
			}
		}
	}

	var violations []string
	report := func(format string, args ...any) {
		if len(violations) < maxReported {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}

	c := &checker{versions: make(map[uint64][]version, len(perKey))}
	ambiguous := make(map[uint64][][]version) // keys whose updates admit several orders
	for key, ops := range perKey {
		cands := timelines(ops)
		if len(cands) == 0 {
			report("key %d: %d successful updates admit no real-time-consistent insert/delete alternation",
				key, len(ops))
			continue
		}
		c.versions[key] = cands[0]
		if len(cands) > 1 {
			ambiguous[key] = cands
		}
		c.keys = append(c.keys, key)
	}
	sort.Slice(c.keys, func(i, j int) bool { return c.keys[i] < c.keys[j] })
	c.settle(h, ambiguous)

	for _, log := range h.Threads {
		for i := range log {
			ev := &log[i]
			if msg := c.checkEvent(ev); msg != "" {
				report("T%d %s: %s", ev.Thread, describe(ev), msg)
			}
		}
	}

	if len(violations) == 0 {
		return nil
	}
	return fmt.Errorf("%w (seed %d): %d violation(s):\n  %s",
		ErrNotLinearizable, h.Cfg.Seed, len(violations),
		strings.Join(violations, "\n  "))
}

// settle picks, for every key whose updates admit several orders, the
// first order that explains all of the key's own reads (invocation order
// stays when none does, and the violations below say why). The orders
// differ in which insert's value survives a knot of overlapping updates,
// so the reads of that key are what tells them apart; committing to the
// first one rejected linearizable histories whenever a thread stalled
// inside an update.
func (c *checker) settle(h *History, ambiguous map[uint64][][]version) {
	if len(ambiguous) == 0 {
		return
	}
	reads := make(map[uint64][]*Event, len(ambiguous))
	for _, log := range h.Threads {
		for i := range log {
			ev := &log[i]
			switch ev.Op {
			case OpRange, OpRangeAt:
				for key := range ambiguous {
					if ev.Lo <= key && key <= ev.Hi {
						reads[key] = append(reads[key], ev)
					}
				}
			default:
				if _, ok := ambiguous[ev.Key]; ok && !((ev.Op == OpInsert || ev.Op == OpDelete) && ev.OK) {
					reads[ev.Key] = append(reads[ev.Key], ev)
				}
			}
		}
	}
	for key, cands := range ambiguous {
		for _, vs := range cands {
			if explainsAll(key, vs, reads[key]) {
				c.versions[key] = vs
				break
			}
		}
	}
}

// explainsAll reports whether timeline vs of key justifies all of reads.
func explainsAll(key uint64, vs []version, reads []*Event) bool {
	one := checker{versions: map[uint64][]version{key: vs}}
	for _, ev := range reads {
		if !one.explains(key, ev) {
			return false
		}
	}
	return true
}

// describe renders an event for violation reports.
func describe(ev *Event) string {
	switch ev.Op {
	case OpRange:
		return fmt.Sprintf("RangeQuery[%d,%d]@[%d,%d] -> %d pairs",
			ev.Lo, ev.Hi, ev.Inv, ev.Ret, len(ev.KVs))
	case OpGet:
		return fmt.Sprintf("Get(%d)@[%d,%d] -> (%d,%v)", ev.Key, ev.Inv, ev.Ret, ev.Val, ev.OK)
	case OpGetAt:
		return fmt.Sprintf("GetAt(%d, ts=%d cap[%d,%d]) -> (%d,%v)",
			ev.Key, ev.TS, ev.TSInv, ev.TSRet, ev.Val, ev.OK)
	case OpRangeAt:
		return fmt.Sprintf("RangeQueryAt[%d,%d](ts=%d cap[%d,%d]) -> %d pairs",
			ev.Lo, ev.Hi, ev.TS, ev.TSInv, ev.TSRet, len(ev.KVs))
	default:
		return fmt.Sprintf("%s(%d)@[%d,%d] -> %v", ev.Op, ev.Key, ev.Inv, ev.Ret, ev.OK)
	}
}

// checkEvent validates one observation against the version timelines;
// it returns "" when the observation is justified by some interleaving.
func (c *checker) checkEvent(ev *Event) string {
	switch ev.Op {
	case OpInsert:
		if ev.OK {
			return "" // part of the replay itself
		}
		if !c.anyVersionIn(ev.Key, ev.Inv, ev.Ret) {
			return "failed, but the key is absent throughout the interval"
		}
	case OpDelete:
		if ev.OK {
			return ""
		}
		if !possiblyAbsentIn(c.versions[ev.Key], ev.Inv, ev.Ret) {
			return "failed, but the key is present throughout the interval"
		}
	case OpContains:
		if ev.OK {
			if !c.anyVersionIn(ev.Key, ev.Inv, ev.Ret) {
				return "returned true, but the key is absent throughout the interval"
			}
		} else if !possiblyAbsentIn(c.versions[ev.Key], ev.Inv, ev.Ret) {
			return "returned false, but the key is present throughout the interval"
		}
	case OpGet:
		return c.checkGet(ev, ev.Inv, ev.Ret)
	case OpRange:
		return c.checkRange(ev, ev.Inv, ev.Ret)
	case OpGetAt, OpRangeAt:
		// A historical read at TS observes the state at some instant of
		// the interval bracketing the Now() call that captured TS: every
		// update that returned before the capture began labeled below TS,
		// every update invoked after it returned labeled above. So the
		// live oracle applies verbatim with the capture interval standing
		// in for the operation's own. A retention refusal is a legal
		// outcome with no observation to justify.
		if ev.Trunc {
			return ""
		}
		if ev.Op == OpGetAt {
			return c.checkGet(ev, ev.TSInv, ev.TSRet)
		}
		return c.checkRange(ev, ev.TSInv, ev.TSRet)
	}
	return ""
}

// checkGet validates a Get-style observation against [a, b] — the
// operation's own interval for live reads, the timestamp-capture
// interval for historical ones.
func (c *checker) checkGet(ev *Event, a, b int64) string {
	if !ev.OK {
		if !possiblyAbsentIn(c.versions[ev.Key], a, b) {
			return "returned miss, but the key is present throughout the interval"
		}
		return ""
	}
	v := c.findVersion(ev.Key, ev.Val)
	if v == nil {
		return fmt.Sprintf("observed value %#x that no successful insert wrote", ev.Val)
	}
	if !v.possiblyIn(a, b) {
		return fmt.Sprintf("observed value %#x outside its version's lifetime", ev.Val)
	}
	return ""
}

// anyVersionIn reports whether any lifetime of key overlaps [a, b].
func (c *checker) anyVersionIn(key uint64, a, b int64) bool {
	vs := c.versions[key]
	for i := range vs {
		if vs[i].possiblyIn(a, b) {
			return true
		}
	}
	return false
}

// checkRange is the snapshot-oracle test: the observed pairs must all be
// explainable at one common instant within [a, b] — the query's own
// interval for live reads, the timestamp-capture interval for
// historical ones — and at that instant no unobserved in-range key may
// be certainly present.
func (c *checker) checkRange(ev *Event, a, b int64) string {
	if ev.Hi < ev.Lo {
		if len(ev.KVs) != 0 {
			return "empty interval returned pairs"
		}
		return ""
	}
	seen := make(map[uint64]*version, len(ev.KVs))
	t0, t1 := a, b
	for _, kv := range ev.KVs {
		if kv.Key < ev.Lo || kv.Key > ev.Hi {
			return fmt.Sprintf("key %d outside the queried interval", kv.Key)
		}
		if seen[kv.Key] != nil {
			return fmt.Sprintf("key %d appears twice in one snapshot", kv.Key)
		}
		v := c.findVersion(kv.Key, kv.Val)
		if v == nil {
			return fmt.Sprintf("pair (%d,%#x) that no successful insert wrote", kv.Key, kv.Val)
		}
		if !v.possiblyIn(a, b) {
			return fmt.Sprintf("pair (%d,%#x) outside its version's lifetime", kv.Key, kv.Val)
		}
		seen[kv.Key] = v
		// Narrow the candidate snapshot window to instants at which this
		// pair can be present.
		if v.estStart > t0 {
			t0 = v.estStart
		}
		if v.lstEnd < t1 {
			t1 = v.lstEnd
		}
	}
	if t0 > t1 {
		return "observed pairs admit no common snapshot instant"
	}
	// Instants at which some unobserved key is certainly present are
	// forbidden; the snapshot needs one instant that is not.
	var forbidden []span
	for _, key := range c.keysIn(ev.Lo, ev.Hi) {
		if seen[key] != nil {
			continue
		}
		vs := c.versions[key]
		for i := range vs {
			if s, ok := vs[i].certainSpan(t0, t1); ok {
				forbidden = append(forbidden, s)
			}
		}
	}
	if covers(forbidden, t0, t1) {
		return "no snapshot instant: every candidate misses a certainly-present key"
	}
	return ""
}
