package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tscds/internal/obs"
)

// fakeSource is a logical counter that logs every bound it hands out and
// can switch generation under a query. Its labels carry the generation in
// the high bits, like AdaptiveSource's.
type fakeSource struct {
	log      *[]string
	gen, now uint64
	onBound  func() // runs just before a bound is handed out
}

func (s *fakeSource) bound(ev string) {
	*s.log = append(*s.log, ev)
	if s.onBound != nil {
		s.onBound()
	}
}

func (s *fakeSource) ts() TS             { return s.gen<<GenShift | s.now }
func (s *fakeSource) Advance() TS        { s.now++; return s.ts() }
func (s *fakeSource) Kind() Kind         { return Logical }
func (s *fakeSource) Generation() uint64 { return s.gen }
func (s *fakeSource) Peek() TS           { s.bound("peek"); return s.ts() }
func (s *fakeSource) Snapshot() TS       { s.bound("snapshot"); s.now++; return s.ts() - 1 }
func (s *fakeSource) switchGeneration()  { s.gen++ }
func (s *fakeSource) reads() (n int)     { return count(*s.log, "peek") + count(*s.log, "snapshot") }
func count(log []string, ev string) (n int) {
	for _, e := range log {
		if e == ev {
			n++
		}
	}
	return n
}

// fakePart is one shard: it logs lock, unlock and collect events, checks
// that its handle is reserved whenever the protocol touches it, and
// returns the keys of its residue class in [lo, hi].
type fakePart struct {
	t         *testing.T
	log       *[]string
	i, n      int
	onCollect func(s TS)
}

func (p *fakePart) RQLock()   { *p.log = append(*p.log, fmt.Sprint("lock ", p.i)) }
func (p *fakePart) RQUnlock() { *p.log = append(*p.log, fmt.Sprint("unlock ", p.i)) }

func (p *fakePart) RangeQueryAt(th *Thread, lo, hi uint64, s TS, out []KV) []KV {
	*p.log = append(*p.log, fmt.Sprint("collect ", p.i))
	if got := th.reg.slots[th.ID].Load(); got != ReservedRQ {
		p.t.Errorf("part %d collected with slot %d, want the reservation", p.i, got)
	}
	th.AnnounceRQ(s)
	if p.onCollect != nil {
		p.onCollect(s)
	}
	for k := lo; k <= hi; k++ {
		if k%uint64(p.n) == uint64(p.i) {
			out = append(out, KV{Key: k, Val: s})
		}
	}
	th.DoneRQ()
	return out
}

// fanout builds n fake parts under rule (lock filled in per part when
// locked) behind one fan-out Reader, with a thread fanned over n
// registries.
func fanout(t *testing.T, n int, peek, locked bool) (*Reader, *fakeSource, []*fakePart, *ShardedRegistry, *Thread, *[]string) {
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
	reg := NewShardedRegistry(n, 2)
	return NewFanout(readers, nil), src, parts, reg, reg.MustRegister(), log
}

func quiescent(t *testing.T, reg *ShardedRegistry) {
	t.Helper()
	for i := 0; i < reg.Shards(); i++ {
		if min := reg.Shard(i).MinActiveRQ(); min != Pending {
			t.Errorf("shard %d: MinActiveRQ = %d after the read, want Pending", i, min)
		}
	}
}

func TestReaderRetriesAcrossGenerationSwitch(t *testing.T) {
	r, src, parts, reg, th, log := fanout(t, 3, false, false)
	var bounds []TS
	parts[0].onCollect = func(s TS) {
		if len(bounds) == 0 {
			src.switchGeneration() // under the first attempt's bound
		}
		bounds = append(bounds, s)
	}
	kept := []KV{{Key: 99, Val: 99}}
	out, s, err := r.Read(th, 0, 5, 0, true, kept)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 2 || bounds[0] == bounds[1] || s != bounds[1] || GenOf(s) != 1 {
		t.Fatalf("bounds per attempt = %v, returned %d: want two attempts, the second under a fresh generation-1 bound", bounds, s)
	}
	if src.reads() != 2 {
		t.Errorf("source read %d times over two attempts and three parts, want once per attempt: %v", src.reads(), *log)
	}
	if count(*log, "collect 1") != 2 {
		t.Errorf("part 1 collected %d times, want once per attempt", count(*log, "collect 1"))
	}
	want := []KV{{99, 99}, {0, s}, {3, s}, {1, s}, {4, s}, {2, s}, {5, s}}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("out = %v\nwant the caller's prefix kept and only the second attempt's pairs: %v", out, want)
	}
	quiescent(t, reg)
}

func TestReaderLocksAscendingAndUnlocksBeforeCollecting(t *testing.T) {
	r, _, _, reg, th, log := fanout(t, 3, false, true)
	r.Live(th, 0, 100, nil)
	want := []string{"lock 0", "lock 1", "lock 2", "snapshot", "unlock 0", "unlock 1", "unlock 2",
		"collect 0", "collect 1", "collect 2"}
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
	rb.PruneBound(reg.Shard(0)) // window 0: everything below now is offered to truncation
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
	out, s, err := r.Read(th, 0, 2, src.ts(), false, nil)
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
	reg := NewShardedRegistry(n, 2)
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
	var reserved []int // the handles holding a reservation when the bound is taken
	src.onBound = func() {
		for i := 0; i < n; i++ {
			if h := th.Shard(i); h.reg.slots[h.ID].Load() == ReservedRQ {
				reserved = append(reserved, i)
			}
		}
	}

	// [8, 10] are the keys of residues 3, 4, 0.
	out := r.Live(th, 8, 10, nil)
	if want := []int{0, 3, 4}; !reflect.DeepEqual(reserved, want) {
		t.Errorf("reserved at the bound: parts %v, want %v", reserved, want)
	}
	want := []string{"lock 0", "lock 3", "lock 4", "snapshot", "unlock 0", "unlock 3", "unlock 4",
		"collect 0", "collect 3", "collect 4"}
	if !reflect.DeepEqual(*log, want) {
		t.Errorf("events = %v\nwant     %v", *log, want)
	}
	if len(out) != 3 {
		t.Errorf("out = %v, want keys 8, 9, 10", out)
	}
	for i, st := range stats {
		if got, want := st.RQs.Load(), uint64(count(*log, fmt.Sprint("collect ", i))); got != want {
			t.Errorf("part %d counted %d range queries, collected %d", i, got, want)
		}
	}
	quiescent(t, reg)

	// A width of n-1 or more covers every residue.
	reserved = nil
	r.Live(th, 7, 11, nil)
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(reserved, want) {
		t.Errorf("a full residue cycle reserved parts %v, want %v", reserved, want)
	}
}

// TestReaderAllocFree: the protocol itself allocates nothing per query —
// no slice of parts, no escaping closure — flat or fanned out, live or
// historical.
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
		th := NewShardedRegistry(n, 2).MustRegister()
		buf := make([]KV, 0, 64)
		*log = make([]string, 0, 1<<16)
		if a := testing.AllocsPerRun(100, func() {
			r.Live(th, 0, 9, buf)
			r.Read(th, 0, 9, src.ts(), false, buf)
			*log = (*log)[:0]
		}); a != 0 {
			t.Errorf("%d parts: a live plus a historical read allocate %.1f objects, want 0", n, a)
		}
	}
}

type nopLock struct{}

func (nopLock) RQLock()   {}
func (nopLock) RQUnlock() {}

type quietPart struct{}

func (quietPart) RangeQueryAt(th *Thread, lo, hi uint64, s TS, out []KV) []KV {
	th.AnnounceRQ(s)
	th.DoneRQ()
	return append(out, KV{Key: lo, Val: s})
}
