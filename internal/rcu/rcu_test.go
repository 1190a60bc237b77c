package rcu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tscds/internal/core"
)

// newDomain returns an RCU domain over a registry whose n slots are all
// registered, so the tests can use raw tids 0..n-1.
func newDomain(n int) *RCU {
	reg := core.NewRegistry(n)
	for i := 0; i < n; i++ {
		reg.MustRegister()
	}
	return New(reg)
}

func TestReadLockUnlock(t *testing.T) {
	r := newDomain(2)
	r.ReadLock(0)
	r.ReadUnlock(0)
	done := make(chan struct{})
	go func() { r.Synchronize(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Synchronize blocked with no readers")
	}
}

func TestSynchronizeWaitsForPriorReader(t *testing.T) {
	r := newDomain(2)
	r.ReadLock(0)
	released := make(chan struct{})
	done := make(chan struct{})
	go func() {
		r.Synchronize()
		select {
		case <-released:
		default:
			t.Error("Synchronize returned while reader still inside")
		}
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	close(released)
	r.ReadUnlock(0)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Synchronize never returned")
	}
}

func TestSynchronizeIgnoresLaterReaders(t *testing.T) {
	r := newDomain(2)
	// A reader that enters after Synchronize starts must not block it.
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
				r.ReadLock(1)
				r.ReadUnlock(1)
			}
		}
	}()
	for i := 0; i < 15; i++ {
		done := make(chan struct{})
		go func() { r.Synchronize(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Synchronize starved by re-entering reader")
		}
	}
	close(stop)
	wg.Wait()
}

// The canonical RCU usage: unlink, synchronize, then reuse. A reader must
// never observe the unlinked value after Synchronize returns.
func TestGracePeriodProtectsUnlink(t *testing.T) {
	r := newDomain(4)
	type node struct{ v int }
	var ptr atomic.Pointer[node]
	ptr.Store(&node{v: 1})
	var freed atomic.Pointer[node] // the node the writer "freed"
	var violations atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for tid := 0; tid < 3; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.ReadLock(tid)
				n := ptr.Load()
				if n == freed.Load() && n != nil {
					violations.Add(1)
				}
				r.ReadUnlock(tid)
			}
		}(tid)
	}
	for i := 2; i < 40; i++ {
		old := ptr.Load()
		ptr.Store(&node{v: i})
		r.Synchronize()
		freed.Store(old) // after grace period nobody may still return it
		time.Sleep(time.Millisecond / 4)
		freed.Store(nil)
	}
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d reader(s) observed a node after its grace period", v)
	}
}

// Synchronize waits on the slots registered so far, so registration
// races it: readers register, run one read-side section, and release in
// a loop — fresh slots raise the registry's mark, released ones are
// reused — while the writer unlinks, synchronizes and "frees". A reader
// must never hold a node after its grace period. Run with -race.
func TestGracePeriodUnderRegistrationChurn(t *testing.T) {
	const readers = 4
	reg := core.NewRegistry(readers)
	r := New(reg)
	type node struct{ v int }
	var ptr, freed atomic.Pointer[node]
	ptr.Store(&node{v: 1})
	var violations atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				th, err := reg.Register()
				if err != nil {
					t.Errorf("Register: %v", err)
					return
				}
				r.ReadLock(th.ID)
				if n := ptr.Load(); n == freed.Load() {
					violations.Add(1)
				}
				r.ReadUnlock(th.ID)
				th.Release()
			}
		}()
	}
	for i := 2; i < 300; i++ {
		old := ptr.Load()
		ptr.Store(&node{v: i})
		r.Synchronize()
		freed.Store(old) // after the grace period nobody may still hold it
		freed.Store(nil)
	}
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d reader(s) held a node after its grace period", v)
	}
}
