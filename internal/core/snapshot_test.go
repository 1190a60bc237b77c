package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tscds/internal/obs"
)

// fakeSource is a logical counter that logs every bound it hands out.
type fakeSource struct {
	log     *[]string
	now     uint64
	onBound func() // runs just before a bound is handed out
}

func (s *fakeSource) bound(ev string) {
	*s.log = append(*s.log, ev)
	if s.onBound != nil {
		s.onBound()
	}
}

func (s *fakeSource) ts() TS         { return s.now }
func (s *fakeSource) Advance() TS    { s.now++; return s.ts() }
func (s *fakeSource) Kind() Kind     { return Logical }
func (s *fakeSource) Peek() TS       { s.bound("peek"); return s.ts() }
func (s *fakeSource) Snapshot() TS   { s.bound("snapshot"); s.now++; return s.ts() - 1 }
func (s *fakeSource) reads() (n int) { return count(*s.log, "peek") + count(*s.log, "snapshot") }
func count(log []string, ev string) (n int) {
	for _, e := range log {
		if e == ev {
			n++
		}
	}
	return n
}

// fakeGap spaces the keys every fake part holds: four to a key block.
const fakeGap = 1 << blockShift / 4

// block is the first key of key block b.
func block(b uint64) uint64 { return b << blockShift }

// fakePart is one shard: it logs lock, unlock and collect events, checks
// that the thread's one slot announces the bound it collects at, and
// returns, ascending, the multiples of fakeGap in [lo, hi] whose key
// blocks it owns. It announces nothing itself, as a structure's collect
// walk does not.
type fakePart struct {
	t         *testing.T
	log       *[]string
	i, n      int
	onCollect func(s TS)
}

func (p *fakePart) RQLock(int) { *p.log = append(*p.log, fmt.Sprint("lock ", p.i)) }
func (p *fakePart) RQUnlock()  { *p.log = append(*p.log, fmt.Sprint("unlock ", p.i)) }

func (p *fakePart) RangeQueryAt(th *Thread, lo, hi uint64, s TS, out []KV) []KV {
	*p.log = append(*p.log, fmt.Sprint("collect ", p.i))
	if got := slot(th); got != s {
		p.t.Errorf("part %d collected at %d with slot %d, want the bound announced", p.i, s, got)
	}
	if p.onCollect != nil {
		p.onCollect(s)
	}
	for _, kv := range keys(lo, hi, s) {
		if PartOf(kv.Key, p.n) == p.i {
			out = append(out, kv)
		}
	}
	return out
}

// keys lists the pairs the fake parts hold in [lo, hi], ascending, all
// at bound s.
func keys(lo, hi uint64, s TS) []KV {
	var out []KV
	for k := (lo + fakeGap - 1) / fakeGap * fakeGap; k <= hi; k += fakeGap {
		out = append(out, KV{Key: k, Val: s})
	}
	return out
}

// slot reads th's announcement slot.
func slot(th *Thread) TS { return th.reg.slots[th.ID].Load() }

// fanout builds n fake parts under rule (lock filled in per part when
// locked) behind one fan-out Reader, with a thread of the parts' one
// registry.
func fanout(t *testing.T, n int, peek, locked bool) (*Reader, *fakeSource, []*fakePart, *Registry, *Thread, *[]string) {
	log := &[]string{}
	src := &fakeSource{log: log, now: 10}
	parts := make([]*fakePart, n)
	readers := make([]*Reader, n)
	for i := range parts {
		parts[i] = &fakePart{t: t, log: log, i: i, n: n}
		b := QueryAdvances
		switch {
		case peek:
			b = QueryReads
		case locked:
			b = QueryAdvancesLocked(parts[i])
		}
		readers[i] = NewReader(src, b, parts[i])
	}
	reg := NewRegistry(2)
	return NewFanout(readers, nil), src, parts, reg, reg.MustRegister(), log
}

func quiescent(t *testing.T, reg *Registry) {
	t.Helper()
	if min := reg.MinActiveRQ(); min != Pending {
		t.Errorf("MinActiveRQ = %d after the read, want Pending", min)
	}
}

func TestReaderRetriesAcrossGenerationSwitch(t *testing.T) {
	r, src, parts, reg, th, log := fanout(t, 3, false, false)
	// The one source whose bounds carry a generation is an AdaptiveSource.
	// In hardware mode this one reads the fake's counter, so its bounds
	// are logged like the fake's, and a failover and a failback under the
	// first attempt's bound take it to generation 2.
	a := NewAdaptive(nil)
	a.read, a.baseHW = func() uint64 { src.bound("snapshot"); src.now++; return src.now }, 0
	r.src = a
	var bounds []TS
	parts[0].onCollect = func(s TS) {
		if len(bounds) == 0 {
			a.SetGeneration(2) // under the first attempt's bound
		}
		bounds = append(bounds, s)
	}
	src.onBound = func() { // the retry re-reserves before its fresh bound
		if got := slot(th); got != ReservedRQ {
			t.Errorf("bound %d taken with slot %d, want the reservation", len(bounds)+1, got)
		}
	}
	kept := []KV{{Key: 99, Val: 99}}
	out, s, err := r.Read(th, 0, block(3)-1, 0, true, kept)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 2 || bounds[0] == bounds[1] || s != bounds[1] || GenOf(s) != 2 {
		t.Fatalf("bounds per attempt = %v, returned %d: want two attempts, the second under a fresh generation-2 bound", bounds, s)
	}
	if src.reads() != 2 {
		t.Errorf("source read %d times over two attempts and three parts, want once per attempt: %v", src.reads(), *log)
	}
	if count(*log, "collect 1") != 2 {
		t.Errorf("part 1 collected %d times, want once per attempt", count(*log, "collect 1"))
	}
	want := append([]KV{{99, 99}}, keys(0, block(3)-1, s)...)
	if !reflect.DeepEqual(out, want) {
		t.Errorf("out = %v\nwant the caller's prefix kept and only the second attempt's pairs: %v", out, want)
	}
	quiescent(t, reg)
}

func TestReaderLocksAscendingAndUnlocksBeforeCollecting(t *testing.T) {
	r, _, _, reg, th, log := fanout(t, 3, false, true)
	r.Live(th, block(1), block(4)-1, nil)
	want := []string{"lock 0", "lock 1", "lock 2", "snapshot", "unlock 0", "unlock 1", "unlock 2",
		"collect 1", "collect 2", "collect 0"}
	if !reflect.DeepEqual(*log, want) {
		t.Errorf("events = %v\nwant     %v", *log, want)
	}
	quiescent(t, reg)
}

func TestReaderBoundRules(t *testing.T) {
	for _, c := range []struct {
		name         string
		peek, locked bool
		want         string
	}{{"query advances", false, false, "snapshot"}, {"query reads", true, false, "peek"}} {
		r, src, _, _, th, log := fanout(t, 4, c.peek, c.locked)
		r.Live(th, 0, 100, nil)
		if src.reads() != 1 || (*log)[0] != c.want {
			t.Errorf("%s: events %v, want one %s before any collection", c.name, *log, c.want)
		}
	}
}

func TestReaderRefusalReleasesEveryReservation(t *testing.T) {
	r, src, _, reg, th, log := fanout(t, 3, false, true)
	rb := NewReadBound(src, 0)
	r.SetHooks(Hooks{ReadBound: rb})
	kept := []KV{{Key: 99, Val: 99}}

	out, _, err := r.Read(th, 0, 100, src.ts()+5, false, kept)
	if !errors.Is(err, ErrFutureTimestamp) {
		t.Fatalf("read ahead of the source: err = %v, want ErrFutureTimestamp", err)
	}
	rb.PruneBound(reg) // window 0: everything below now is offered to truncation
	out2, _, err := r.Read(th, 0, 100, 3, false, kept)
	if !errors.Is(err, ErrTruncatedHistory) {
		t.Fatalf("read below the watermark: err = %v, want ErrTruncatedHistory", err)
	}
	if !reflect.DeepEqual(out, kept) || !reflect.DeepEqual(out2, kept) {
		t.Errorf("refused reads returned %v and %v, want out unchanged", out, out2)
	}
	for _, e := range *log {
		if e != "peek" { // CheckAt's look at the source, nothing else
			t.Errorf("refused reads locked or collected: %v", *log)
			break
		}
	}
	quiescent(t, reg)

	// At the watermark the read goes through, at the requested bound,
	// without taking a lock or a fresh bound.
	*log = (*log)[:0]
	out, s, err := r.Read(th, 0, 2*fakeGap, src.ts(), false, nil)
	if err != nil || s != src.ts() || len(out) != 3 || out[0].Val != s {
		t.Fatalf("read at the watermark: out %v bound %d err %v", out, s, err)
	}
	if count(*log, "snapshot")+count(*log, "lock 0") != 0 {
		t.Errorf("historical read took a lock or a fresh bound: %v", *log)
	}
}

func TestReaderTouchesOnlyHitParts(t *testing.T) {
	log := &[]string{}
	src := &fakeSource{log: log, now: 10}
	const n = 5
	reg := NewRegistry(2)
	th := reg.MustRegister()
	parts := make([]*fakePart, n)
	readers := make([]*Reader, n)
	stats := make([]*obs.ShardStats, n)
	for i := range parts {
		parts[i] = &fakePart{t: t, log: log, i: i, n: n}
		readers[i] = NewReader(src, QueryAdvancesLocked(parts[i]), parts[i])
		stats[i] = &obs.ShardStats{}
	}
	r := NewFanout(readers, stats)
	reserved := 0 // bounds taken with the one slot reserved
	src.onBound = func() {
		if slot(th) == ReservedRQ {
			reserved++
		}
	}

	// Blocks 3, 4 and 5 belong to parts 3, 4 and 0: the locks go in index
	// order, the collections in rotation from lo's part.
	lo, hi := block(3)+1, block(5)+fakeGap
	out := r.Live(th, lo, hi, nil)
	if reserved != 1 {
		t.Errorf("the slot was reserved at %d of 1 bounds taken", reserved)
	}
	want := []string{"lock 0", "lock 3", "lock 4", "snapshot", "unlock 0", "unlock 3", "unlock 4",
		"collect 3", "collect 4", "collect 0"}
	if !reflect.DeepEqual(*log, want) {
		t.Errorf("events = %v\nwant     %v", *log, want)
	}
	if w := keys(lo, hi, 10); !reflect.DeepEqual(out, w) {
		t.Errorf("out = %v\nwant  %v", out, w)
	}
	for i, st := range stats {
		if got, want := st.RQs.Load(), uint64(count(*log, fmt.Sprint("collect ", i))); got != want {
			t.Errorf("part %d counted %d range queries, collected %d", i, got, want)
		}
	}
	quiescent(t, reg)

	// n blocks or more cover every part, each collected once.
	*log = (*log)[:0]
	r.Live(th, block(2)+7, block(2+n)-1, nil)
	for i := 0; i < n; i++ {
		if count(*log, fmt.Sprint("collect ", i)) != 1 {
			t.Errorf("a full block cycle did not collect part %d once: %v", i, *log)
		}
	}
	quiescent(t, reg)
}

// TestReaderReturnsKeyOrder: a read visits the parts it hits in rotation
// from lo's part, so up to n blocks come back ascending as collected; a
// read spanning more blocks than parts has some part return two blocks,
// and comes back sorted all the same. With one part every read is the
// part's own order.
func TestReaderReturnsKeyOrder(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		r, _, _, _, th, log := fanout(t, n, false, false)
		for _, iv := range [][2]uint64{
			{0, fakeGap},                       // one block
			{block(1) + 5, block(3)},           // across block boundaries
			{block(6), block(6+uint64(n)) - 1}, // exactly n blocks, from part 6 mod n
			{block(1) + 1, block(uint64(3*n + 2))},
		} {
			*log = (*log)[:0]
			out, s, _ := r.Read(th, iv[0], iv[1], 0, true, nil)
			if want := keys(iv[0], iv[1], s); !reflect.DeepEqual(out, want) {
				t.Errorf("%d parts, [%d, %d]: out = %v\nwant %v", n, iv[0], iv[1], out, want)
			}
			if n == 4 && iv[0] == block(6) {
				want := []string{"snapshot", "collect 2", "collect 3", "collect 0", "collect 1"}
				if !reflect.DeepEqual(*log, want) {
					t.Errorf("events = %v\nwant     %v", *log, want)
				}
			}
		}
	}
}

// TestReaderAnnouncesOnce: the Reader alone reserves, announces and
// withdraws the thread's one slot, and the parts only collect. Every part
// of a fan-out collects under the one announcement (the fake part checks
// the slot holds its bound), so a part that withdrew it, or a Reader that
// withdrew it between parts, leaves the next part unprotected and fails
// here.
func TestReaderAnnouncesOnce(t *testing.T) {
	r, src, parts, reg, th, log := fanout(t, 3, false, false)
	r.SetHooks(Hooks{ReadBound: NewReadBound(src, 0)})
	for _, p := range parts {
		p.onCollect = func(s TS) {
			if min := reg.MinActiveRQ(); min > s {
				t.Errorf("part %d collected at %d while MinActiveRQ was %d", p.i, s, min)
			}
		}
	}
	if out := r.Live(th, 0, block(3)-1, nil); len(out) != 12 {
		t.Errorf("live read returned %v, want the 12 keys of blocks 0-2", out)
	}
	if got := slot(th); got != Pending {
		t.Errorf("slot after a live read = %d, want Pending", got)
	}
	if _, _, err := r.Read(th, 0, block(3)-1, src.ts()+5, false, nil); !errors.Is(err, ErrFutureTimestamp) {
		t.Fatalf("read ahead of the source: err = %v, want ErrFutureTimestamp", err)
	}
	if got := slot(th); got != Pending {
		t.Errorf("slot after a refused historical read = %d, want Pending", got)
	}
	if _, _, err := r.Read(th, 0, block(3)-1, src.ts(), false, nil); err != nil {
		t.Fatal(err)
	}
	if got := slot(th); got != Pending {
		t.Errorf("slot after a historical read = %d, want Pending", got)
	}
	for _, p := range parts {
		if c := count(*log, fmt.Sprint("collect ", p.i)); c != 2 {
			t.Errorf("part %d collected %d times, want once per accepted read", p.i, c)
		}
	}
}

// TestReaderAllocFree: the protocol itself allocates nothing per query —
// no slice of parts, no escaping closure, no sort buffer — flat or fanned
// out, live or historical, within one block or wider than the parts.
func TestReaderAllocFree(t *testing.T) {
	for _, n := range []int{1, 4} {
		log := &[]string{}
		src := &fakeSource{log: log, now: 10}
		readers := make([]*Reader, n)
		for i := range readers {
			readers[i] = NewReader(src, QueryAdvancesLocked(nopLock{}), quietPart{})
		}
		r := NewFanout(readers, nil)
		r.SetHooks(Hooks{ReadBound: NewReadBound(src, 0)})
		th := NewRegistry(2).MustRegister()
		buf := make([]KV, 0, 64)
		*log = make([]string, 0, 1<<16)
		if a := testing.AllocsPerRun(100, func() {
			r.Live(th, 0, 9, buf)
			r.Read(th, 0, block(9), src.ts(), false, buf)
			*log = (*log)[:0]
		}); a != 0 {
			t.Errorf("%d parts: a live plus a historical read allocate %.1f objects, want 0", n, a)
		}
	}
}

type nopLock struct{}

func (nopLock) RQLock(int) {}
func (nopLock) RQUnlock()  {}

type quietPart struct{}

func (quietPart) RangeQueryAt(th *Thread, lo, hi uint64, s TS, out []KV) []KV {
	return append(out, KV{Key: lo, Val: s})
}

func TestAllocModeString(t *testing.T) {
	for m, want := range map[AllocMode]string{AllocGC: "GC", AllocPool: "Pool", 2: "unknown", 9: "unknown"} {
		if m.String() != want {
			t.Fatalf("AllocMode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}
