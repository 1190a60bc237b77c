package epoch

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"tscds/internal/core"
	"tscds/internal/obs"
)

type item struct {
	key   uint64
	dtime core.TS
}

func retainByDtime(it item, minRQ core.TS) bool { return it.dtime >= minRQ }

// newManager builds a manager without sinks over registry(n, minRQ).
func newManager[T any](n int, retain func(T, core.TS) bool, minRQ core.TS) *Manager[T] {
	return NewManager[T](registry(n, minRQ), retain, nil, nil, nil)
}

// registry returns a registry whose first n slots are registered, so tests
// can use raw tids 0..n-1. A minRQ other than core.Pending is announced on
// one further slot, standing in for an active range query at that bound.
func registry(n int, minRQ core.TS) *core.Registry {
	reg := core.NewRegistry(n + 1)
	for i := 0; i < n; i++ {
		reg.MustRegister()
	}
	if minRQ != core.Pending {
		reg.MustRegister().AnnounceRQ(minRQ)
	}
	return reg
}

// TestSlotLayout pins what the slot comment promises: what the owner
// writes on every operation shares no cache line with what limbo walks
// read, and neighbouring slots share none at all.
func TestSlotLayout(t *testing.T) {
	var s slot[item]
	line := func(off uintptr) uintptr { return off / cacheLine }
	owner := line(unsafe.Offsetof(s.local))
	list := line(unsafe.Offsetof(s.head))
	for name, off := range map[string]uintptr{
		"retires": unsafe.Offsetof(s.retires), "unpins": unsafe.Offsetof(s.unpins),
	} {
		if line(off) != owner {
			t.Errorf("%s is on line %d, the owner's is %d", name, line(off), owner)
		}
	}
	for name, off := range map[string]uintptr{
		"claim": unsafe.Offsetof(s.claim), "deferred": unsafe.Offsetof(s.deferred),
	} {
		if line(off) != list {
			t.Errorf("%s is on line %d, the list's is %d", name, line(off), list)
		}
	}
	if owner/2 == list/2 {
		t.Errorf("owner line %d and list line %d are one prefetch pair", owner, list)
	}
	if size := unsafe.Sizeof(s); size%(2*cacheLine) != 0 {
		t.Errorf("slot is %d bytes, not a whole number of line pairs", size)
	}
}

func TestRetireAndScan(t *testing.T) {
	m := newManager[item](4, nil, core.Pending)
	m.Retire(0, item{key: 1})
	m.Retire(1, item{key: 2})
	m.Retire(0, item{key: 3})
	var keys []uint64
	m.WalkLimbo(func(it item) bool { keys = append(keys, it.key); return true })
	if len(keys) != 3 {
		t.Fatalf("scanned %d items, want 3: %v", len(keys), keys)
	}
	if m.LimboLen() != 3 {
		t.Fatalf("LimboLen = %d", m.LimboLen())
	}
}

// Returning false ends the current thread's list only: the walk goes on
// with the next thread's, newest retirement first.
func TestWalkLimboStopEndsOneList(t *testing.T) {
	m := newManager[item](3, nil, core.Pending)
	for i := 0; i < 10; i++ {
		m.Retire(0, item{key: uint64(i)})
		m.Retire(2, item{key: uint64(100 + i)})
	}
	var seen []uint64
	m.WalkLimbo(func(it item) bool {
		seen = append(seen, it.key)
		return it.key%100 != 8 // stop each list at its second-newest item
	})
	want := []uint64{9, 8, 109, 108}
	if !slices.Equal(seen, want) {
		t.Fatalf("walk visited %v, want %v", seen, want)
	}
}

func TestEpochAdvancesWhenQuiescent(t *testing.T) {
	m := newManager[item](2, nil, core.Pending)
	g0 := m.GlobalEpoch()
	// No thread pinned: enough retirements should advance the epoch.
	for i := 0; i < 3*pruneInterval; i++ {
		m.Retire(0, item{key: uint64(i)})
	}
	if m.GlobalEpoch() <= g0 {
		t.Fatalf("epoch did not advance: %d -> %d", g0, m.GlobalEpoch())
	}
}

func TestEpochBlockedByPinnedThread(t *testing.T) {
	m := newManager[item](2, nil, core.Pending)
	m.Pin(1) // thread 1 parks inside an old epoch
	g0 := m.GlobalEpoch()
	for i := 0; i < 2*pruneInterval; i++ {
		m.Retire(0, item{key: uint64(i)})
	}
	// One advance is possible (thread 1 observed g0), but not two: the
	// global can move at most one step past a pinned thread's epoch.
	if g := m.GlobalEpoch(); g > g0+1 {
		t.Fatalf("epoch advanced %d -> %d past pinned thread", g0, g)
	}
	m.Unpin(1)
	for i := 0; i < 3*pruneInterval; i++ {
		m.Retire(0, item{key: uint64(i)})
	}
	if g := m.GlobalEpoch(); g <= g0+1 {
		t.Fatalf("epoch stuck at %d after unpin", g)
	}
}

func TestPruneDropsOldItems(t *testing.T) {
	m := newManager[item](2, retainByDtime, core.Pending)
	for i := 0; i < 10*pruneInterval; i++ {
		m.Retire(0, item{key: uint64(i), dtime: core.TS(i)})
	}
	// With no active RQ (min = Pending) and epochs advancing freely,
	// the limbo list must stay far below the total retired count.
	if n := m.LimboLen(); n >= 10*pruneInterval {
		t.Fatalf("limbo never pruned: %d items", n)
	}
}

func TestRetentionHoldsItemsForActiveRQ(t *testing.T) {
	// Active RQ at ts=5: items deleted at or after 5 must survive
	// arbitrary pruning pressure.
	minRQ := core.TS(5)
	m := newManager[item](2, retainByDtime, minRQ)
	for i := 0; i < 4*pruneInterval; i++ {
		m.Retire(0, item{key: uint64(i), dtime: core.TS(i % 10)})
	}
	m.Prune(0)
	held := map[uint64]bool{}
	m.WalkLimbo(func(it item) bool {
		if it.dtime < minRQ {
			// Allowed to remain (pruning is lazy) but must not be
			// required; nothing to assert for them.
			return true
		}
		held[it.key] = true
		return true
	})
	// The most recent retirements with dtime >= 5 must all be present:
	// check the newest 10 such items are reachable.
	found := 0
	m.WalkLimbo(func(it item) bool {
		if it.dtime >= minRQ {
			found++
		}
		return true
	})
	if found == 0 {
		t.Fatal("retention predicate ignored: no items with dtime >= minRQ retained")
	}
}

// Regression for the Pin publication race: a thread delayed between
// loading the global epoch and publishing it is invisible to concurrent
// tryAdvance passes. If the epoch moved twice in that window, the old
// single-store Pin left the thread published two epochs behind —
// outside Prune's two-epoch safety margin — so Prune could drop a node
// the thread was about to traverse. Fixed Pin re-reads the global and
// loops until the published value is current.
func TestPinPublicationRace(t *testing.T) {
	m := newManager[item](2, nil, core.Pending)
	fired := false
	m.pinHook = func() {
		if fired {
			return
		}
		fired = true
		// Two tryAdvance passes run to completion inside the window,
		// neither seeing the in-flight pin.
		m.global.Add(2)
	}
	m.Pin(0)
	if got, g := m.slots[0].local.Load(), m.global.Load(); got != g {
		t.Fatalf("Pin published epoch %d while global is %d: two prune passes can miss this thread", got, g)
	}
	m.Unpin(0)
}

// With the looped Pin, a pinned thread can never trail the global epoch
// by two — the bound Prune's safety margin depends on. Stress it with
// concurrent retirement-driven advancement (meaningful under -race and
// on the pre-fix Pin).
func TestPinnedThreadNeverTrailsByTwo(t *testing.T) {
	m := newManager[item](4, nil, core.Pending)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // advance pressure
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				m.Retire(0, item{key: uint64(i)})
			}
		}
	}()
	for i := 0; i < 3000; i++ {
		m.Pin(1)
		// While thread 1 stays pinned at l, tryAdvance cannot move the
		// global past l+1.
		for k := 0; k < 4; k++ {
			l := m.slots[1].local.Load()
			if g := m.global.Load(); g > l+1 {
				close(done)
				t.Fatalf("iteration %d: pinned at %d but global reached %d", i, l, g)
			}
		}
		m.Unpin(1)
	}
	close(done)
	wg.Wait()
}

// Regression for unbounded limbo growth: once updates cease, read-only
// traffic (pin/unpin) must still drain the limbo lists to zero.
func TestLimboDrainsAfterUpdatesCease(t *testing.T) {
	m := newManager[item](2, retainByDtime, core.Pending)
	for i := 0; i < 100; i++ {
		m.Pin(0)
		m.Retire(0, item{key: uint64(i), dtime: core.TS(i)})
		m.Unpin(0)
	}
	if m.LimboLen() == 0 {
		t.Fatal("test needs a non-empty limbo list to be meaningful")
	}
	for i := 0; i < 8*drainInterval && m.LimboLen() > 0; i++ {
		m.Pin(0)
		m.Unpin(0)
	}
	if n := m.LimboLen(); n != 0 {
		t.Fatalf("limbo list never drained under read-only traffic: %d items", n)
	}
}

func TestDrainEmptiesLimboImmediately(t *testing.T) {
	m := newManager[item](2, retainByDtime, core.Pending)
	for i := 0; i < 10; i++ {
		m.Retire(0, item{key: uint64(i), dtime: core.TS(i)})
		m.Retire(1, item{key: uint64(100 + i), dtime: core.TS(i)})
	}
	m.Drain(0)
	perThread := 0
	m.WalkLimbo(func(it item) bool {
		if it.key < 100 {
			perThread++
		}
		return true
	})
	if perThread != 0 {
		t.Fatalf("Drain(0) left %d items on thread 0's list", perThread)
	}
	m.DrainAll()
	if n := m.LimboLen(); n != 0 {
		t.Fatalf("DrainAll left %d items", n)
	}
}

// Drain must respect retention: items an active range query still needs
// survive it.
func TestDrainRespectsActiveRQ(t *testing.T) {
	minRQ := core.TS(5)
	m := newManager[item](2, retainByDtime, minRQ)
	for i := 0; i < 10; i++ {
		m.Retire(0, item{key: uint64(i), dtime: core.TS(i)})
	}
	m.Drain(0)
	held := 0
	m.WalkLimbo(func(it item) bool {
		if it.dtime >= minRQ {
			held++
		}
		return true
	})
	if held != 5 {
		t.Fatalf("Drain dropped items an active RQ needs: %d of 5 held", held)
	}
}

func TestConcurrentRetireAndScan(t *testing.T) {
	m := newManager[item](8, retainByDtime, core.ReservedRQ) // retain all
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				m.Pin(tid)
				m.Retire(tid, item{key: uint64(tid*10000 + i), dtime: core.TS(i)})
				m.Unpin(tid)
			}
		}(tid)
	}
	for r := 4; r < 8; r++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Pin(tid)
				m.WalkLimbo(func(it item) bool { return true })
				m.Unpin(tid)
			}
		}(r)
	}
	wg.Wait()
	if n := m.LimboLen(); n != 4*2000 {
		t.Fatalf("retain-all kept %d items, want %d", n, 4*2000)
	}
}

// Regression for the GC-stat accounting race: Drain/DrainAll used to
// call Prune on lists whose owner was pruning concurrently, and both
// passes could detach-and-count overlapping suffixes, so LimboLen
// drifted (negative or overcounted) and retired/pruned disagreed. The
// CAS-claimed prune boundary makes exactly one pruner the accountant
// for each detached suffix; under concurrent churn the books must
// balance exactly once everything drains.
func TestLimboAccountingUnderConcurrentDrain(t *testing.T) {
	const total = 60 * pruneInterval
	gc := &obs.GC{}
	m := NewManager(registry(2, core.Pending), retainByDtime, gc, nil, nil)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // adversarial drainer racing the owner's amortized prunes
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				m.DrainAll()
			}
		}
	}()
	for i := 0; i < total; i++ {
		m.Pin(0)
		m.Retire(0, item{key: uint64(i), dtime: core.TS(i)})
		m.Unpin(0)
	}
	close(done)
	wg.Wait()

	for i := 0; i < 2*drainRounds && m.LimboLen() > 0; i++ {
		m.DrainAll()
	}
	if n := m.LimboLen(); n != 0 {
		t.Fatalf("limbo did not drain: %d items left", n)
	}
	retired, pruned, lvl := gc.LimboRetired.Load(), gc.LimboPruned.Load(), gc.LimboLen.Load()
	if retired != total {
		t.Fatalf("retired = %d, want %d (a lost CAS push drops retirements)", retired, total)
	}
	if pruned != retired {
		t.Fatalf("pruned = %d but retired = %d: suffix double- or under-counted", pruned, retired)
	}
	if lvl != 0 {
		t.Fatalf("LimboLen gauge drifted to %d after full drain, want 0", lvl)
	}
}

// Regression for DrainAll's single-writer violation, which recycling
// turns from a stat bug into a double-free: with a Recycle hook
// installed, a node must reach the hook exactly once no matter how
// DrainAll races the owners' retires and amortized prunes. Run under
// -race (make check does).
func TestRecycleExactlyOnceUnderConcurrentDrain(t *testing.T) {
	const threads = 4
	const perThread = 3000
	counts := make([]atomic.Int32, threads*perThread)
	m := NewManager(registry(threads, core.Pending), nil, nil, nil, func(it *item, tid int) {
		if c := counts[it.key].Add(1); c > 1 {
			t.Errorf("item %d recycled %d times (double-free)", it.key, c)
		}
	})

	done := make(chan struct{})
	var drainer sync.WaitGroup
	drainer.Add(1)
	go func() {
		defer drainer.Done()
		for {
			select {
			case <-done:
				return
			default:
				m.DrainAll()
			}
		}
	}()
	var workers sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		workers.Add(1)
		go func(tid int) {
			defer workers.Done()
			for i := 0; i < perThread; i++ {
				m.Pin(tid)
				m.Retire(tid, &item{key: uint64(tid*perThread + i)})
				m.Unpin(tid)
			}
		}(tid)
	}
	workers.Wait()
	close(done)
	drainer.Wait()

	for i := 0; i < 4*drainRounds; i++ {
		m.DrainAll()
	}
	for k := range counts {
		if c := counts[k].Load(); c != 1 {
			t.Fatalf("item %d recycled %d times, want exactly 1", k, c)
		}
	}
}

// Regression for the scan/recycle window: a WalkLimbo walk that
// loaded a list head before a prune detached it may still be reading
// those nodes, so handing them to a pool mid-scan would let the scan
// observe recycled memory. The manager must defer recycling until no
// scan is active. The recycle hook poisons items, so without the scan
// guard the blocked scanner below resumes into poisoned nodes and the
// test fails.
func TestWalkLimboNeverObservesRecycled(t *testing.T) {
	const total = 5
	const poison = ^uint64(0)
	var recycled atomic.Int32
	m := NewManager(registry(1, core.Pending), nil, nil, nil, func(it *item, tid int) {
		it.key = poison
		recycled.Add(1)
	})
	for i := 0; i < total; i++ {
		m.Retire(0, &item{key: uint64(i)})
	}

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		first := true
		m.WalkLimbo(func(it *item) bool {
			if first {
				first = false
				close(started)
				<-release // park mid-scan while the drain below runs
			}
			if it.key == poison {
				t.Error("limbo scan observed an item after it was recycled")
			}
			return true
		})
	}()

	<-started
	m.Drain(0) // advances epochs and detaches the whole list mid-scan
	if n := recycled.Load(); n != 0 {
		t.Fatalf("recycled %d items while a limbo scan was active", n)
	}
	close(release)
	wg.Wait()

	// With the scan gone, the parked chain must actually flush — deferral
	// may not become a leak.
	m.Drain(0)
	if n := recycled.Load(); n != total {
		t.Fatalf("deferred chain never recycled: %d of %d", n, total)
	}
}

// A limbo walk registers in the scan count only to defer recycling, so a
// manager built without a Recycle hook (every AllocGC EBR-RQ map) walks
// without writing anything shared, and one built with a hook is counted
// for as long as its visitor runs.
func TestWalkLimboCountsOnlyWhenRecycling(t *testing.T) {
	for _, c := range []struct {
		name    string
		recycle func(item, int)
		want    int64
	}{{"no-hook", nil, 0}, {"hook", func(item, int) {}, 1}} {
		m := NewManager(registry(1, core.Pending), nil, nil, nil, c.recycle)
		m.Retire(0, item{key: 1})
		during := int64(-1)
		m.WalkLimbo(func(item) bool { during = m.scans.Load(); return true })
		if during != c.want || m.scans.Load() != 0 {
			t.Errorf("%s: scans = %d during the walk and %d after, want %d and 0", c.name, during, m.scans.Load(), c.want)
		}
	}
}

// Recycling must wait THREE epochs past a node's tag, not classic EBR's
// two: nodes are retired before they are unlinked, so a reader pinned
// one epoch past the tag can still acquire the node from the structure.
// Regression test for a crash where a recycled skip-list node was
// re-initialized at a lower level while such a reader was validating
// through it.
func TestRecycleWaitsThreeEpochs(t *testing.T) {
	var recycled []uint64
	m := NewManager(registry(2, core.Pending), nil, nil, nil, func(it item, tid int) { recycled = append(recycled, it.key) })
	m.Retire(0, item{key: 7})
	g0 := m.GlobalEpoch()
	for m.GlobalEpoch() < g0+2 {
		m.tryAdvance()
	}
	m.Prune(0)
	if len(recycled) != 0 {
		t.Fatalf("item recycled only two epochs past its tag: %v", recycled)
	}
	m.tryAdvance()
	m.Prune(0)
	if len(recycled) != 1 || recycled[0] != 7 {
		t.Fatalf("item not recycled three epochs past its tag: %v", recycled)
	}
}

// Slot scans stop at the registry's high-water mark, so registration
// races them. Workers register, pin, retire, unpin and release in a loop
// — fresh slots raise the mark, released ones are reused — while a
// drainer runs tryAdvance, prunes and limbo walks. Two things must hold:
// a pinned thread, however new its slot, never sees the global epoch
// move two past it (the margin pruning depends on), and no retirement
// into a slot the scans had not reached yet is lost: once everything
// drains, retired == pruned. Run with -race.
func TestSlotScansUnderRegistrationChurn(t *testing.T) {
	const workers = 6
	const rounds = 400
	reg := core.NewRegistry(workers)
	gc := &obs.GC{}
	m := NewManager(reg, retainByDtime, gc, nil, nil)

	done := make(chan struct{})
	var drainer sync.WaitGroup
	drainer.Add(1)
	go func() {
		defer drainer.Done()
		for {
			select {
			case <-done:
				return
			default:
				m.tryAdvance()
				m.DrainAll()
				m.LimboLen()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				th, err := reg.Register()
				if err != nil {
					t.Errorf("Register: %v", err)
					return
				}
				m.Pin(th.ID)
				l := m.slots[th.ID].local.Load()
				m.Retire(th.ID, item{key: uint64(w*rounds + i), dtime: core.TS(i)})
				if g := m.global.Load(); g > l+1 {
					t.Errorf("slot %d pinned at %d but global reached %d", th.ID, l, g)
				}
				m.Unpin(th.ID)
				th.Release()
			}
		}(w)
	}
	wg.Wait()
	close(done)
	drainer.Wait()

	for i := 0; i < 2*drainRounds && m.LimboLen() > 0; i++ {
		m.DrainAll()
	}
	retired, pruned := gc.LimboRetired.Load(), gc.LimboPruned.Load()
	if retired != workers*rounds || pruned != retired || m.LimboLen() != 0 {
		t.Fatalf("retired %d (want %d), pruned %d, %d left in limbo", retired, workers*rounds, pruned, m.LimboLen())
	}
}
