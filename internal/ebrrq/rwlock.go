package ebrrq

import (
	"runtime"
	"sync/atomic"
)

// rwLock is the lock-based variant's global readers-writer lock: the
// phase-fair ticket lock of Brandenburg & Anderson ("Spin-based
// reader-writer synchronization for multiprocessor real-time systems",
// Real-Time Systems 46(1), 2010). Updates hold it shared around one (read
// timestamp, write label) pair; a range query holds it exclusively while
// it takes its bound.
//
// A reader enters with one atomic add to rin and leaves with one to rout;
// the low byte of rin carries the writer bits, set while a writer is
// present (pres) and naming that writer's phase (phid, its ticket's low
// bit). A reader that arrives while a writer is present waits only until
// that writer's phase ends, and a writer waits its ticket turn, then for
// the readers that entered before it announced itself: neither side
// starves. Waiters spin and yield the processor every spinYield tries;
// none parks, so a contended acquire costs the lock's cache line and not
// a trip through the scheduler. The price is paid when goroutines
// outnumber processors and readers never block: a yielded writer whose
// ticket comes up runs only when the scheduler next picks it, while
// readers keep entering (with 4 looping readers and 2 looping writers on
// 2 processors, writers got through about 30 times a second).
//
// The four words share one cache line, padded off the line before it
// (the core.PaddedUint64 idiom) and filling the rest of their own, so
// Provider's read-mostly fields never share the lock's line
// (TestLockOwnsItsLine).
type rwLock struct {
	_         [cacheLine]byte
	rin, rout atomic.Uint64 // readers in / out, in units of rinc; rin's low byte: writer bits
	win, wout atomic.Uint64 // writer tickets issued / served
	_         [cacheLine - 32]byte
}

const (
	cacheLine = 64
	rinc      = 0x100 // one reader in rin or rout
	wbits     = 0x3   // rin's writer bits
	pres      = 0x2   // a writer is present
	phid      = 0x1   // the present writer's phase
	spinYield = 32    // tries between yields of a waiting goroutine
)

// rlock enters the shared side. Uncontended it is one atomic add, inlined
// where the caller labels; the wait stays out of line.
func (l *rwLock) rlock() {
	if w := l.rin.Add(rinc) & wbits; w != 0 {
		l.rwait(w)
	}
}

// rwait waits out the writer phase w that a reader arrived in: the bits
// change when that writer leaves, whether or not the next writer is
// already present (its phase bit differs).
func (l *rwLock) rwait(w uint64) {
	for i := 1; l.rin.Load()&wbits == w; i++ {
		spin(i)
	}
}

// runlock leaves the shared side.
func (l *rwLock) runlock() { l.rout.Add(rinc) }

// lock takes the exclusive side: its ticket turn among writers, then the
// readers that entered before its writer bits were set.
func (l *rwLock) lock() {
	t := l.win.Add(1) - 1
	for i := 1; l.wout.Load() != t; i++ {
		spin(i)
	}
	w := pres | t&phid
	r := l.rin.Add(w) - w // readers entered so far; no writer bits were set
	for i := 1; l.rout.Load() != r; i++ {
		spin(i)
	}
}

// unlock leaves the exclusive side: it takes its writer bits back out of
// rin (its ticket is the one being served), releasing the readers waiting
// on its phase, then serves the next ticket.
func (l *rwLock) unlock() {
	w := pres | l.wout.Load()&phid
	l.rin.Add(^(w - 1))
	l.wout.Add(1)
}

// spin is a waiter's i-th try: every spinYield-th yields the processor, so
// the holder runs even when the waiter shares its only one.
func spin(i int) {
	if i%spinYield == 0 {
		runtime.Gosched()
	}
}
