package sim

// Line models one contended cache line (a logical timestamp, a lock
// word) under a MESI-like discipline: writes and cold reads serialize on
// ownership transfers whose latency depends on where the line last
// lived; re-reads of an unmodified line hit the local cache and neither
// serialize nor pay a transfer.
//
// When multiple requesters wait, the next owner is chosen pseudo-randomly
// (deterministically seeded): coherence arbitration does not honor FIFO
// arrival, and round-robin grant order would understate cross-zone
// traffic by letting each zone's threads drain consecutively.
type Line struct {
	version   uint64
	busy      bool
	lastOwner int // worker id, -1 initially
	lastZone  int
	waiters   []lineReq
	rng       uint64
}

type lineReq struct {
	w     *worker
	write bool
	done  func()
}

// NewLine returns a line owned by nobody. Versions start at 1 so a
// worker's zero-valued cache entry reads as "never seen".
func NewLine() *Line { return &Line{lastOwner: -1, version: 1, rng: 0x1234567} }

// access schedules done when the worker's access completes. write
// indicates a modifying access (fetch-and-add); reads by a worker whose
// cached copy is current complete locally, and read *misses* pay only a
// fetch latency without serializing — MESI serves shared copies of an
// unmodified line to any number of readers concurrently; only ownership
// transfers (writes) serialize.
func (l *Line) access(e *Engine, m *Machine, w *worker, write bool, done func()) {
	if !write {
		if w.lineSeen[l] == l.version {
			e.After(m.LineCached, done)
			return
		}
		lat := m.LineIntraZone
		if l.lastZone != w.zone {
			lat = m.LineCrossZone
		}
		v := l.version
		e.After(lat, func() {
			w.lineSeen[l] = v
			done()
		})
		return
	}
	l.waiters = append(l.waiters, lineReq{w: w, write: write, done: done})
	if !l.busy {
		l.grant(e, m)
	}
}

func (l *Line) grant(e *Engine, m *Machine) {
	if len(l.waiters) == 0 {
		l.busy = false
		return
	}
	l.busy = true
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	idx := int(l.rng % uint64(len(l.waiters)))
	req := l.waiters[idx]
	l.waiters[idx] = l.waiters[len(l.waiters)-1]
	l.waiters = l.waiters[:len(l.waiters)-1]

	var svc float64
	switch {
	case l.lastOwner == req.w.id || l.lastOwner == -1:
		svc = m.LineSameOwner
	case l.lastZone == req.w.zone:
		svc = m.LineIntraZone
	default:
		svc = m.LineCrossZone
	}
	e.After(svc, func() {
		if req.write {
			l.version++
		}
		l.lastOwner = req.w.id
		l.lastZone = req.w.zone
		req.w.lineSeen[l] = l.version
		req.done()
		l.grant(e, m)
	})
}

// RWLock models a fair readers-writer lock whose lock word is itself a
// contended line: every acquire and release pays a line access, and
// exclusive holders serialize everyone — the EBR-RQ bottleneck of §IV.
// Its native counterpart is the lock-based ebrrq.Provider's phase-fair
// spin lock, whose waiters spin on that line and never sleep.
type RWLock struct {
	word    *Line
	readers int
	writing bool
	queue   []rwReq
}

type rwReq struct {
	write bool
	w     *worker
	grant func()
}

// NewRWLock returns an unheld lock.
func NewRWLock() *RWLock { return &RWLock{word: NewLine()} }

// acquire requests the lock; grant runs once it is held.
func (k *RWLock) acquire(e *Engine, m *Machine, w *worker, write bool, grant func()) {
	k.word.access(e, m, w, true, func() {
		k.queue = append(k.queue, rwReq{write: write, w: w, grant: grant})
		k.dispatch(e)
	})
}

// release drops the lock (shared or exclusive as acquired).
func (k *RWLock) release(e *Engine, m *Machine, w *worker, write bool, done func()) {
	k.word.access(e, m, w, true, func() {
		if write {
			k.writing = false
		} else {
			k.readers--
		}
		k.dispatch(e)
		done()
	})
}

// dispatch grants queued requests FIFO: a run of readers at the head is
// admitted together; a writer waits for exclusivity.
func (k *RWLock) dispatch(e *Engine) {
	for len(k.queue) > 0 {
		head := k.queue[0]
		if head.write {
			if k.writing || k.readers > 0 {
				return
			}
			k.writing = true
		} else {
			if k.writing {
				return
			}
			k.readers++
		}
		k.queue = k.queue[1:]
		e.After(0, head.grant)
	}
}
