package ebrrq

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"tscds/internal/core"
)

// lockDeadline bounds every lock test: what takes milliseconds when each
// waiter yields takes seconds when one spins on the processor its holder
// needs, and a deadline turns that into a failure instead of a hung run.
const lockDeadline = 5 * time.Second

// forProcs runs f once at the default GOMAXPROCS and once with a single
// processor, where a waiter that never yields can only make progress by
// being preempted.
func forProcs(t *testing.T, f func(t *testing.T)) {
	t.Run("procs=default", f)
	t.Run("procs=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		f(t)
	})
}

// within runs fs concurrently and fails t unless all return within
// lockDeadline.
func within(t *testing.T, fs ...func()) {
	t.Helper()
	var wg sync.WaitGroup
	for _, f := range fs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(lockDeadline):
		t.Fatalf("lock workers still running after %v", lockDeadline)
	}
}

// TestLockExcludes hammers one lock with 4 readers and 2 writers. Inside
// its section a reader counts 1 and a writer 1<<32, and each checks that
// no writer is inside beside it. A holder yields its processor inside the
// section, as a preempted one would, and every worker keeps going until
// the last has done its share, so the two sides overlap however they are
// scheduled.
func TestLockExcludes(t *testing.T) {
	forProcs(t, func(t *testing.T) {
		const writer = 1 << 32
		var l rwLock
		var in atomic.Int64
		var bad atomic.Int64 // sections that saw a writer beside someone
		var left atomic.Int32
		hold := func() {
			for i := 0; i < 2; i++ {
				if in.Load() > writer {
					bad.Add(1)
				}
				runtime.Gosched()
			}
		}
		worker := func(n int, section func()) func() {
			left.Add(1)
			return func() {
				for i := 0; left.Load() > 0; i++ {
					section()
					if i == n {
						left.Add(-1)
					}
				}
			}
		}
		read := func() {
			l.rlock()
			if in.Add(1) >= writer {
				bad.Add(1)
			}
			hold()
			in.Add(-1)
			l.runlock()
		}
		write := func() {
			l.lock()
			if in.Add(writer) != writer {
				bad.Add(1)
			}
			hold()
			in.Add(-writer)
			l.unlock()
		}
		within(t, worker(20_000, read), worker(20_000, read), worker(20_000, read),
			worker(20_000, read), worker(2_000, write), worker(2_000, write))
		if n := bad.Load(); n != 0 {
			t.Fatalf("%d sections saw a writer beside another holder", n)
		}
	})
}

// TestLockPhaseFair: a writer gets its turn among readers that re-enter
// without pause, and a reader among such writers, 1,000 times each. A lock
// that prefers either side starves the other, and the test times out.
func TestLockPhaseFair(t *testing.T) {
	const turns = 1_000
	loop := func(stop *atomic.Bool, enter, leave func()) func() {
		return func() {
			for !stop.Load() {
				enter()
				leave()
			}
		}
	}
	for _, c := range []struct {
		name         string
		turn, others func(l *rwLock) (enter, leave func())
	}{
		{"writer-through-readers", exclusive, shared},
		{"reader-through-writers", shared, exclusive},
	} {
		t.Run(c.name, func(t *testing.T) {
			forProcs(t, func(t *testing.T) {
				var l rwLock
				var stop atomic.Bool
				enter, leave := c.turn(&l)
				oEnter, oLeave := c.others(&l)
				other := loop(&stop, oEnter, oLeave)
				within(t, other, other, other, func() {
					defer stop.Store(true)
					for i := 0; i < turns; i++ {
						enter()
						leave()
					}
				})
			})
		})
	}
}

func shared(l *rwLock) (enter, leave func())    { return l.rlock, l.runlock }
func exclusive(l *rwLock) (enter, leave func()) { return l.lock, l.unlock }

// TestLockOwnsItsLine pins the lock's layout: its four words lie in one
// 64-byte line of Provider that holds no other field, and Provider's size
// is a size class whose objects start on a line, so that line is a real
// one in every Provider New returns.
func TestLockOwnsItsLine(t *testing.T) {
	var p Provider
	base := unsafe.Offsetof(p.mu)
	lo, hi := base+unsafe.Offsetof(p.mu.rin), base+unsafe.Offsetof(p.mu.wout)+8
	line := lo &^ (cacheLine - 1)
	if hi > line+cacheLine {
		t.Fatalf("lock words span [%d, %d), more than the line at %d", lo, hi, line)
	}
	typ := reflect.TypeOf((*Provider)(nil)).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "mu" || f.Name == "_" {
			continue
		}
		if f.Offset < line+cacheLine && f.Offset+f.Type.Size() > line {
			t.Errorf("field %s at [%d, %d) shares the lock's line [%d, %d)",
				f.Name, f.Offset, f.Offset+f.Type.Size(), line, line+cacheLine)
		}
	}
	if got := unsafe.Sizeof(p); got != 192 {
		t.Errorf("unsafe.Sizeof(Provider{}) = %d, want 192", got)
	}
	for i := 0; i < 16; i++ {
		q := lockBased(core.New(core.Logical))
		if a := uintptr(unsafe.Pointer(&q.mu.rin)); a%cacheLine != 0 {
			t.Fatalf("a new Provider's lock words start at %#x, off a line", a)
		}
	}
}
