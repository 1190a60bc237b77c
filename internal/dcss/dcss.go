// Package dcss implements the double-compare-single-swap primitive of
// Harris, Fraser and Pratt ("A practical multi-word compare-and-swap
// operation", DISC 2002), restricted to the two-address form that
// lock-free EBR-RQ needs: atomically store n2 into address a2 if and only
// if a2 currently holds e2 AND a separate address a1 holds e1.
//
// In EBR-RQ, a1 is the global logical timestamp and a2 is a node's
// insertion/deletion label; the primitive makes (read timestamp, label
// node) atomic without locks. Because it fundamentally validates a value
// *at an address*, it is the construct the paper identifies as
// incompatible with hardware timestamps.
//
// A Word is one 64-bit word holding a 63-bit value: bit 63 marks the word
// as occupied by an in-flight DCSS. The plain operations (Read, Store,
// CAS) allocate nothing — they are the per-update label traffic of the
// lock-based variant, where no mark ever appears — while DCSS allocates
// one descriptor per attempt, the price of a helping protocol whose
// descriptors may be held by stalled helpers indefinitely.
//
// A mark is markBit|seq, seq taken from one process-wide counter, so no
// two attempts install the same mark. An attempt publishes its descriptor
// in a process-wide slot table, at seq's low bits, before it installs the
// mark, and clears its slot when it completes. A reader meeting a mark
// helps the descriptor in the mark's slot complete and retries, so a
// stalled writer never blocks progress — unless a later attempt has taken
// the slot: then helpers yield until the owner, which completes right
// after installing its mark, resolves the word.
package dcss

import (
	"runtime"
	"sync/atomic"
)

// MaxValue is the largest value a Word can hold; bit 63 is reserved for
// in-flight descriptor marks.
const MaxValue = 1<<63 - 1

const markBit = uint64(1) << 63

func marked(x uint64) bool { return x&markBit != 0 }

// slots is the size of the descriptor table: a helper finds a mark's
// descriptor unless this many attempts have started since its install.
const slots = 1 << 10

var (
	seq   atomic.Uint64
	table [slots]atomic.Pointer[descriptor]
	// afterInstall, nil outside tests, runs between an attempt installing
	// its mark and completing its descriptor.
	afterInstall func(w *Word, mark uint64)
)

// Word is a 63-bit location supporting Read, CAS and DCSS with helping.
// The zero value holds 0. Values with bit 63 set are reserved and must
// not be stored.
type Word struct {
	v atomic.Uint64 // plain value, or markBit|seq while a DCSS is in flight
}

const (
	undecided uint32 = iota
	succeeded
	failed
)

type descriptor struct {
	a1     *atomic.Uint64
	e1     uint64
	e2, n2 uint64
	mark   uint64
	status atomic.Uint32
}

// help resolves the in-flight operation whose mark x the caller observed
// in the word. It returns when the word no longer holds x.
func (w *Word) help(x uint64) {
	for w.v.Load() == x {
		d := table[x%slots].Load()
		if d == nil || d.mark != x {
			// A later attempt took the slot (or cleared it on completing):
			// the owner resolves x itself, right after installing it.
			runtime.Gosched()
			continue
		}
		w.complete(d, x)
	}
}

// complete decides d's outcome exactly once (status CAS) and replaces the
// mark x, which the caller installed for d or matched against d.mark, by
// it. An undecided status proves the word still holds x, since the mark
// leaves only after the decision: so the decision is taken while the word
// is frozen at e2, which is the operation's linearization point. Safe to
// call from any helper.
func (w *Word) complete(d *descriptor, x uint64) {
	if d.status.Load() == undecided {
		if d.a1.Load() == d.e1 {
			d.status.CompareAndSwap(undecided, succeeded)
		} else {
			d.status.CompareAndSwap(undecided, failed)
		}
	}
	out := d.e2
	if d.status.Load() == succeeded {
		out = d.n2
	}
	w.v.CompareAndSwap(x, out)
}

// Read returns the word's current value, helping any in-flight DCSS
// complete first.
func (w *Word) Read() uint64 {
	for {
		x := w.v.Load()
		if !marked(x) {
			return x
		}
		w.help(x)
	}
}

// Store unconditionally sets the value, helping in-flight operations so
// their outcome is decided before being overwritten. Intended for
// initialization and single-writer phases. Allocation-free.
func (w *Word) Store(v uint64) {
	for {
		x := w.v.Load()
		if marked(x) {
			w.help(x)
			continue
		}
		if w.v.CompareAndSwap(x, v) {
			return
		}
	}
}

// CAS atomically replaces old with new, helping in-flight DCSS
// operations. It returns false if the current value differs from old.
// Allocation-free.
func (w *Word) CAS(old, new uint64) bool {
	for {
		x := w.v.Load()
		if marked(x) {
			w.help(x)
			continue
		}
		if x != old {
			return false
		}
		if w.v.CompareAndSwap(old, new) {
			return true
		}
	}
}

// DCSS stores n2 into the word iff the word holds e2 and *a1 == e1, all
// atomically. It returns the value observed in the word and whether the
// swap took effect. A false return with cur == e2 means the first
// comparand (a1) had moved — the retry signal EBR-RQ updates act on.
func (w *Word) DCSS(a1 *atomic.Uint64, e1, e2, n2 uint64) (cur uint64, ok bool) {
	for {
		x := w.v.Load()
		if marked(x) {
			w.help(x)
			continue
		}
		if x != e2 {
			return x, false
		}
		// A fresh descriptor per attempt: a helper that found an abandoned
		// one in the slot may still be reading its mark.
		d := &descriptor{a1: a1, e1: e1, e2: e2, n2: n2, mark: markBit | seq.Add(1)}
		slot := &table[d.mark%slots]
		slot.Store(d)
		if !w.v.CompareAndSwap(e2, d.mark) {
			slot.CompareAndSwap(d, nil)
			continue // the word moved under us; re-validate
		}
		if afterInstall != nil {
			afterInstall(w, d.mark)
		}
		w.complete(d, d.mark)
		slot.CompareAndSwap(d, nil)
		return e2, d.status.Load() == succeeded
	}
}
