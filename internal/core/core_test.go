package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Logical:   "Logical",
		TSC:       "RDTSCP",
		Monotonic: "Monotonic",
		Adaptive:  "Adaptive",
		Kind(99):  "Unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestLogicalSourceSequential(t *testing.T) {
	s := New(Logical)
	first := s.Peek()
	if first != 1 {
		t.Fatalf("fresh logical source Peek = %d, want 1", first)
	}
	for i := 0; i < 1000; i++ {
		before := s.Peek()
		got := s.Advance()
		if got != before+1 {
			t.Fatalf("Advance returned %d after Peek %d", got, before)
		}
	}
}

func TestLogicalSourceConcurrentUnique(t *testing.T) {
	s := New(Logical)
	const gs = 8
	const per = 10000
	results := make([][]TS, gs)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]TS, per)
			for i := range out {
				out[i] = s.Advance()
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	seen := make(map[TS]bool, gs*per)
	for _, out := range results {
		for _, v := range out {
			if seen[v] {
				t.Fatalf("duplicate logical timestamp %d", v)
			}
			seen[v] = true
		}
	}
	if got := s.Peek(); got != gs*per+1 {
		t.Fatalf("final Peek = %d, want %d", got, gs*per+1)
	}
}

func TestAllKindsConstructAndAdvance(t *testing.T) {
	for _, k := range []Kind{Logical, TSC, Monotonic, Adaptive} {
		s := New(k)
		if s.Kind() != k {
			t.Errorf("New(%v).Kind() = %v", k, s.Kind())
		}
		a := s.Advance()
		b := s.Advance()
		if b < a {
			t.Errorf("%v: Advance went backwards %d -> %d", k, a, b)
		}
		if s.Peek() == Pending {
			t.Errorf("%v: Peek returned Pending", k)
		}
	}
}

func TestTSCSourceMonotonicAcrossCalls(t *testing.T) {
	s := New(TSC)
	prev := s.Advance()
	for i := 0; i < 100000; i++ {
		now := s.Advance()
		if now < prev {
			t.Fatalf("TSC source went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
}

// TestStrictStampsFromAdvance is the §III-A claim that a Jiffy-style
// store's strict-increase wait loop "is never used in practice": goroutines
// CAS a shared word to an Advance reading strictly greater than the word,
// retaking the reading on a tie (a reading not above the last stamp
// taken). The stamps come out unique and strictly increasing per
// goroutine on every source, and on TSC the ties stay under maxTSCTies
// of every stamp: a tie there needs two cores to read one cycle, or
// cross-core skew.
func TestStrictStampsFromAdvance(t *testing.T) {
	const gs, per = 4, 2000
	const maxTSCTies = gs * per / 100
	for _, k := range []Kind{TSC, Monotonic, Logical} {
		t.Run(k.String(), func(t *testing.T) {
			s := New(k)
			var last PaddedUint64
			var ties, lost atomic.Int64
			stamps := make([][]TS, gs)
			var wg sync.WaitGroup
			for g := range stamps {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					out := make([]TS, 0, per)
					for len(out) < per {
						prev := last.Load()
						ts := s.Advance()
						switch {
						case ts <= prev:
							ties.Add(1)
						case last.CompareAndSwap(prev, ts):
							out = append(out, ts)
						default:
							lost.Add(1)
						}
					}
					stamps[g] = out
				}(g)
			}
			wg.Wait()
			seen := make(map[TS]bool, gs*per)
			for g, out := range stamps {
				for i, ts := range out {
					if i > 0 && ts <= out[i-1] {
						t.Fatalf("goroutine %d: stamp %d is %d after %d", g, i, ts, out[i-1])
					}
					if seen[ts] {
						t.Fatalf("stamp %d taken twice", ts)
					}
					seen[ts] = true
				}
			}
			t.Logf("%v: %d stamps, %d ties, %d lost CASes", k, gs*per, ties.Load(), lost.Load())
			if k == TSC && ties.Load() > maxTSCTies {
				t.Fatalf("%d TSC ties in %d stamps, want at most %d", ties.Load(), gs*per, maxTSCTies)
			}
		})
	}
}

func TestPaddedUint64(t *testing.T) {
	var p PaddedUint64
	if p.Load() != 0 {
		t.Fatal("zero value not zero")
	}
	p.Store(7)
	if got := p.Add(3); got != 10 {
		t.Fatalf("Add = %d, want 10", got)
	}
	if !p.CompareAndSwap(10, 20) || p.Load() != 20 {
		t.Fatal("CAS failed")
	}
	if p.CompareAndSwap(10, 30) {
		t.Fatal("CAS succeeded with wrong expected value")
	}
}

func TestRegistryRegisterReleaseReuse(t *testing.T) {
	r := NewRegistry(2)
	a := r.MustRegister()
	b := r.MustRegister()
	if _, err := r.Register(); err == nil {
		t.Fatal("expected registry-full error")
	}
	bID := b.ID
	b.Release()
	c := r.MustRegister()
	if c.ID != bID {
		t.Fatalf("released slot not reused: got %d, want %d", c.ID, bID)
	}
	a.Release()
	c.Release()
}

func TestMinActiveRQ(t *testing.T) {
	r := NewRegistry(4)
	if got := r.MinActiveRQ(); got != Pending {
		t.Fatalf("empty registry MinActiveRQ = %d, want Pending", got)
	}
	a := r.MustRegister()
	b := r.MustRegister()
	a.AnnounceRQ(100)
	b.AnnounceRQ(50)
	if got := r.MinActiveRQ(); got != 50 {
		t.Fatalf("MinActiveRQ = %d, want 50", got)
	}
	b.DoneRQ()
	if got := r.MinActiveRQ(); got != 100 {
		t.Fatalf("MinActiveRQ = %d, want 100", got)
	}
	a.DoneRQ()
	if got := r.MinActiveRQ(); got != Pending {
		t.Fatalf("MinActiveRQ = %d, want Pending", got)
	}
}

// Property: MinActiveRQ equals the minimum of any set of announced values.
func TestMinActiveRQProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) > 64 {
			vals = vals[:64]
		}
		r := NewRegistry(64)
		min := Pending
		for _, v := range vals {
			if v >= Pending {
				v = MaxTS
			}
			th := r.MustRegister()
			th.AnnounceRQ(v)
			if v < min {
				min = v
			}
		}
		return r.MinActiveRQ() == min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: logical Advance values observed by one goroutine strictly
// increase regardless of interleaving with another advancing goroutine.
func TestLogicalMonotoneUnderConcurrencyProperty(t *testing.T) {
	s := New(Logical)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s.Advance()
			}
		}
	}()
	prev := s.Advance()
	for i := 0; i < 50000; i++ {
		now := s.Advance()
		if now <= prev {
			t.Fatalf("logical Advance not strictly increasing: %d then %d", prev, now)
		}
		prev = now
	}
	close(stop)
}

func BenchmarkLogicalAdvance(b *testing.B) {
	s := New(Logical)
	for i := 0; i < b.N; i++ {
		s.Advance()
	}
}

func BenchmarkTSCAdvance(b *testing.B) {
	s := New(TSC)
	for i := 0; i < b.N; i++ {
		s.Advance()
	}
}

func TestTSCSourceUsableImmediately(t *testing.T) {
	s := New(TSC)
	if a := Actual(s); a != TSC && a != Monotonic {
		t.Fatalf("Actual(New(TSC)) = %v", a)
	}
	// Whatever the host provides, the source must be usable immediately.
	if s.Snapshot() == Pending || s.Advance() == Pending {
		t.Fatal("TSC source produced the Pending sentinel")
	}
}

func TestSnapshotStrictlyBelowLaterLabelsLogical(t *testing.T) {
	s := New(Logical)
	for i := 0; i < 1000; i++ {
		snap := s.Snapshot()
		label := s.Peek()
		if label <= snap {
			t.Fatalf("label %d not strictly after snapshot %d", label, snap)
		}
	}
}

func TestRegistryConcurrentRegisterRelease(t *testing.T) {
	r := NewRegistry(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				th, err := r.Register()
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				th.BeginRQ()
				th.AnnounceRQ(5)
				th.DoneRQ()
				th.Release()
			}
		}()
	}
	wg.Wait()
	if got := r.MinActiveRQ(); got != Pending {
		t.Fatalf("MinActiveRQ after quiesce = %d", got)
	}
}
