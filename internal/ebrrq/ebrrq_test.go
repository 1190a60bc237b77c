package ebrrq

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"tscds/internal/core"
)

// lockBased is New's lock-based variant, which accepts every source.
func lockBased(src core.Source) *Provider {
	p, _ := New(src, LockBased)
	return p
}

func TestLockFreeRejectsHardwareSources(t *testing.T) {
	for _, k := range []core.Kind{core.TSC, core.TSCUnfenced, core.TSCCPUID, core.TSCRaw, core.Monotonic} {
		if _, err := New(core.New(k), LockFree); !errors.Is(err, ErrRequiresAddress) {
			t.Errorf("New(%v, LockFree) err = %v, want ErrRequiresAddress", k, err)
		}
		if p, err := New(core.New(k), LockBased); err != nil || p.variant != LockBased {
			t.Errorf("New(%v, LockBased) = %v, %v; want the lock-based provider", k, p, err)
		}
	}
	if _, err := New(core.New(core.Logical), LockFree); err != nil {
		t.Fatalf("New(logical, LockFree) err = %v", err)
	}
}

func TestLabelLifecycle(t *testing.T) {
	var l Label
	l.Init()
	if l.Get() != core.Pending {
		t.Fatal("fresh label reports assigned")
	}
	p := lockBased(core.New(core.Logical))
	ts := p.Label(-1, &l)
	if ts == core.Pending || l.Get() != ts {
		t.Fatalf("label = %d, assigned ts = %d", l.Get(), ts)
	}
}

func providers(t *testing.T) map[string]*Provider {
	t.Helper()
	lf, err := New(core.New(core.Logical), LockFree)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Provider{
		"lock-logical": lockBased(core.New(core.Logical)),
		"lock-tsc":     lockBased(core.New(core.TSC)),
		"lockfree":     lf,
	}
}

// snapshot takes a range query's bound the way core.Reader does.
func snapshot(p *Provider) core.TS {
	p.RQLock(-1)
	defer p.RQUnlock()
	return p.Source().Snapshot()
}

// The invariant every variant must provide: a label assigned after a
// snapshot bound was taken is strictly greater than the bound (modulo
// the theoretical TSC tie, which cannot occur here because the snapshot
// and label reads are separated by far more than one cycle).
func TestLabelAfterSnapshotIsNewer(t *testing.T) {
	for name, p := range providers(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 2000; i++ {
				s := snapshot(p)
				var l Label
				l.Init()
				ts := p.Label(-1, &l)
				if ts <= s {
					t.Fatalf("label %d not after snapshot %d", ts, s)
				}
			}
		})
	}
}

// Symmetric invariant: a snapshot taken after a label sees it.
func TestSnapshotAfterLabelCoversIt(t *testing.T) {
	for name, p := range providers(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 2000; i++ {
				var l Label
				l.Init()
				ts := p.Label(-1, &l)
				s := snapshot(p)
				if ts > s {
					t.Fatalf("snapshot %d below earlier label %d", s, ts)
				}
			}
		})
	}
}

// Under concurrency, every (snapshot, label) pair observed with the
// label assigned before the snapshot was requested must satisfy
// label <= snapshot; labels assigned after must exceed it.
func TestConcurrentSnapshotLabelOrdering(t *testing.T) {
	for name, p := range providers(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						var l Label
						l.Init()
						before := snapshot(p)
						ts := p.Label(-1, &l)
						after := snapshot(p)
						if ts <= before || ts > after {
							t.Errorf("label %d outside (%d, %d]", ts, before, after)
							return
						}
					}
				}()
			}
			for i := 0; i < 2000; i++ {
				snapshot(p)
			}
			close(stop)
			wg.Wait()
		})
	}
}

// Lock-free labeling must converge even while the global timestamp is
// being advanced aggressively (DCSS failures retry).
func TestLockFreeLabelUnderSnapshotStorm(t *testing.T) {
	src := core.New(core.Logical)
	p, err := New(src, LockFree)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snapshot(p)
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		var l Label
		l.Init()
		ts := p.Label(-1, &l)
		if ts == core.Pending || l.Get() != ts {
			t.Fatalf("labeling failed under contention: %d vs %d", ts, l.Get())
		}
	}
	close(stop)
	wg.Wait()
}

// A label is assigned exactly once even when raced by helpers.
func TestLabelIdempotentUnderRace(t *testing.T) {
	p, err := New(core.New(core.Logical), LockFree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		var l Label
		l.Init()
		var wg sync.WaitGroup
		results := make([]core.TS, 4)
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g] = p.Label(-1, &l)
			}(g)
		}
		wg.Wait()
		final := l.Get()
		for g, r := range results {
			if r != final {
				t.Fatalf("labeler %d saw %d, final label %d", g, r, final)
			}
		}
	}
}

func TestVisibleAt(t *testing.T) {
	P := core.Pending
	cases := []struct {
		itime, dtime, s core.TS
		want            bool
	}{
		{1, P, 5, true},  // alive, inserted before s
		{6, P, 5, false}, // inserted after s
		{P, P, 5, false}, // insert in flight (linearizes after s)
		{1, 3, 5, false}, // deleted before s
		{1, 9, 5, true},  // deleted after s: in snapshot
		{5, P, 5, true},  // inserted exactly at s
		{1, 5, 5, false}, // deleted exactly at s
		{1, 6, 5, true},  // boundary: deleted just after
		{5, 6, 5, true},  // inserted at s, deleted after
	}
	for i, c := range cases {
		if got := VisibleAt(c.itime, c.dtime, c.s); got != c.want {
			t.Errorf("case %d: VisibleAt(%d,%d,%d) = %v, want %v", i, c.itime, c.dtime, c.s, got, c.want)
		}
	}
}

// Property: VisibleAt is monotone in deletion time and antitone in
// insertion time.
func TestVisibleAtProperty(t *testing.T) {
	f := func(it, dt, s uint64) bool {
		if it == uint64(core.Pending) {
			it--
		}
		v := VisibleAt(it, dt, s)
		// Inserting earlier never hides a visible node.
		if v && it > 0 && !VisibleAt(it-1, dt, s) {
			return false
		}
		// Deleting later never hides a visible node.
		if v && dt != core.Pending && dt < core.MaxTS && !VisibleAt(it, dt+1, s) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLabelLockBasedLogical(b *testing.B) {
	p := lockBased(core.New(core.Logical))
	var l Label
	for i := 0; i < b.N; i++ {
		l.Init()
		p.Label(-1, &l)
	}
}

func BenchmarkLabelLockBasedTSC(b *testing.B) {
	p := lockBased(core.New(core.TSC))
	var l Label
	for i := 0; i < b.N; i++ {
		l.Init()
		p.Label(-1, &l)
	}
}

func BenchmarkLabelLockFree(b *testing.B) {
	p, _ := New(core.New(core.Logical), LockFree)
	var l Label
	for i := 0; i < b.N; i++ {
		l.Init()
		p.Label(-1, &l)
	}
}
