package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestThreadLayout: a handle is 128 bytes, a size class the allocator
// aligns to cache lines, so no object another thread writes shares a line
// with the fields every operation reads.
func TestThreadLayout(t *testing.T) {
	if s := unsafe.Sizeof(Thread{}); s != 128 {
		t.Fatalf("Thread is %d bytes, want 128", s)
	}
}

// Regression: a double Release must not push the slot onto the free list
// twice — that would hand one announcement slot to two goroutines and
// break the MinActiveRQ reclamation invariant.
func TestReleaseIdempotent(t *testing.T) {
	r := NewRegistry(4)
	th, err := r.Register()
	if err != nil {
		t.Fatal(err)
	}
	id := th.ID
	th.Release()
	th.Release() // second release must be a no-op
	a := r.MustRegister()
	b := r.MustRegister()
	if a.ID == b.ID {
		t.Fatalf("double release handed slot %d to two threads", a.ID)
	}
	// The freed slot is reused exactly once.
	if a.ID != id && b.ID != id {
		t.Fatalf("released slot %d never reused (got %d, %d)", id, a.ID, b.ID)
	}
}

func TestDoubleReleaseNeverOverfillsRegistry(t *testing.T) {
	r := NewRegistry(2)
	a := r.MustRegister()
	b := r.MustRegister()
	a.Release()
	a.Release()
	b.Release()
	// Only two distinct slots exist; three registrations must fail even
	// after the double release above.
	r.MustRegister()
	r.MustRegister()
	if _, err := r.Register(); err == nil {
		t.Fatal("registry handed out more slots than its capacity")
	}
}

// Exhaustion and reuse: a full registry errors cleanly on the next
// Register, a Release makes exactly that slot available again, and the
// capacity bound still holds afterwards.
func TestRegistryExhaustionAndReuse(t *testing.T) {
	r := NewRegistry(3)
	ths := make([]*Thread, 3)
	for i := range ths {
		th, err := r.Register()
		if err != nil {
			t.Fatalf("register %d of 3: %v", i+1, err)
		}
		ths[i] = th
	}
	if _, err := r.Register(); err == nil {
		t.Fatal("full registry handed out a fourth slot")
	}
	id := ths[1].ID
	ths[1].Release()
	th, err := r.Register()
	if err != nil {
		t.Fatalf("released slot not reusable: %v", err)
	}
	if th.ID != id {
		t.Fatalf("reuse handed slot %d, want released slot %d", th.ID, id)
	}
	if _, err := r.Register(); err == nil {
		t.Fatal("registry overfilled after reuse")
	}
}

// Race-focused churn over register/announce/release (run with -race; the
// make check target does). Every goroutine loops obtaining a handle,
// announcing a range query through it, and releasing it — with a rogue
// double release thrown in — while a scanner computes MinActiveRQ.
func TestRegistryChurnRace(t *testing.T) {
	const workers = 8
	r := NewRegistry(workers)
	var stop sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < workers; i++ {
		stop.Add(1)
		go func() {
			defer stop.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				th, err := r.Register()
				if err != nil {
					continue // capacity transiently exhausted by churn
				}
				th.BeginRQ()
				th.AnnounceRQ(42)
				th.DoneRQ()
				th.Release()
				th.Release() // regression: must stay a no-op under -race
			}
		}()
	}
	deadline := time.After(200 * time.Millisecond)
	for {
		select {
		case <-deadline:
			close(done)
			stop.Wait()
			if got := r.MinActiveRQ(); got != Pending {
				t.Fatalf("MinActiveRQ after quiesce = %d, want Pending", got)
			}
			return
		default:
			_ = r.MinActiveRQ()
		}
	}
}

// Announcement slots released and re-registered must come back Pending so
// a stale announcement can never pin reclamation.
func TestReleasedSlotComesBackPending(t *testing.T) {
	r := NewRegistry(1)
	th := r.MustRegister()
	th.AnnounceRQ(7)
	th.Release()
	if got := r.MinActiveRQ(); got != Pending {
		t.Fatalf("released slot still announces %d", got)
	}
	th2 := r.MustRegister()
	if got := r.MinActiveRQ(); got != Pending {
		t.Fatalf("fresh slot announces %d", got)
	}
	th2.Release()
}

// Live is the bound every slot scan stops at: it counts the slots ever
// handed out, grows only when the free list is empty, and never moves
// back on Release.
func TestLiveHighWaterMark(t *testing.T) {
	r := NewRegistry(4)
	if r.Live() != 0 {
		t.Fatalf("fresh registry Live = %d", r.Live())
	}
	a, b := r.MustRegister(), r.MustRegister()
	if r.Live() != 2 {
		t.Fatalf("Live after two registrations = %d", r.Live())
	}
	a.Release()
	b.Release()
	if r.Live() != 2 {
		t.Fatalf("Live moved to %d on Release", r.Live())
	}
	c := r.MustRegister() // reuses a released slot
	if r.Live() != 2 || c.ID >= 2 {
		t.Fatalf("re-registration got slot %d with Live = %d, want a reused slot below 2", c.ID, r.Live())
	}
}

// A scan bounded by Live must never miss an announcement that was made
// before the scan started, however the announcing slot was obtained:
// fresh (raising the mark) or reused. Workers register, announce a
// bound, check that their own MinActiveRQ scan honours it, and release,
// while scanners run concurrently (run with -race).
func TestLiveBoundedScanSeesEveryAnnouncement(t *testing.T) {
	const workers = 6
	r := NewRegistry(workers)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { // scanners racing the registrations
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = r.MinActiveRQ()
				}
			}
		}()
	}
	var failed atomic.Bool
	var workersWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			for i := 0; i < 2000 && !failed.Load(); i++ {
				th, err := r.Register()
				if err != nil {
					t.Errorf("Register: %v", err)
					return
				}
				if th.ID >= r.Live() {
					failed.Store(true)
					t.Errorf("handle %d handed out above Live = %d", th.ID, r.Live())
				}
				bound := TS(100 + w)
				th.BeginRQ()
				th.AnnounceRQ(bound)
				if min := r.MinActiveRQ(); min > bound {
					failed.Store(true)
					t.Errorf("scan after AnnounceRQ(%d) on slot %d returned %d: the slot was skipped", bound, th.ID, min)
				}
				th.DoneRQ()
				th.Release()
			}
		}(w)
	}
	workersWG.Wait()
	close(done)
	wg.Wait()
}
