package core

import "errors"

// Typed errors for time-travel reads. The facade re-exports them so
// callers can errors.Is against either package's name.
var (
	// ErrTruncatedHistory reports that the requested timestamp is older
	// than the retained history: a prune point at or above it has been
	// published, so the version a read at that instant should observe
	// may already have been truncated (and, under recycling allocators,
	// reused). Reads refuse rather than serve a too-new value.
	ErrTruncatedHistory = errors.New("tscds: timestamp below the retained history window")

	// ErrFutureTimestamp reports a requested timestamp ahead of the
	// source: no update can have linearized there yet, so a "historical"
	// read at it would really be a read of the unstable present.
	ErrFutureTimestamp = errors.New("tscds: timestamp ahead of the source")
)

// ReadBound is the watermark that makes time-travel reads refuse
// truncated history instead of silently serving a too-new version.
//
// Without it, pruning is governed only by the announcement registry:
// Truncate(minRQ) keeps exactly the newest version <= minRQ per key,
// which is sufficient for in-flight range queries (their bounds are
// announced) but leaves a *future* historical read at ts no way to
// know whether the version it found is the one that was current at ts
// or merely the oldest survivor of a truncation that already passed ts.
//
// ReadBound closes that hole with a publish-before-prune protocol:
//
//	pruner: w := lowWater()            reader: th.BeginRQ()         (slot := ReservedRQ)
//	        pruned.fetchMax(w)                 err := rb.CheckAt(ts) (load pruned)
//	        min := reg.MinActiveRQ()           th.AnnounceRQ(ts)
//	        Truncate(min(w, min))              ... collect at ts ...
//
// Both sides use sequentially consistent atomics, so at least one of
// the cross-reads observes the other's write: either the reader loads
// a pruned watermark >= w (and refuses ts < w with ErrTruncatedHistory
// before touching the structure), or the pruner's MinActiveRQ scan
// observes the reader's ReservedRQ slot (= 0) and truncates nothing.
// Either way a read that proceeds past CheckAt only ever observes
// versions its announced bound protects.
//
// The watermark is intentionally conservative: it rises to the
// *intended* prune point even when MinActiveRQ holds the actual
// truncation lower, so a later read inside (min, w) may refuse where
// it could still have answered. That trades a little availability at
// the retention edge for never returning a wrong-version value.
//
// window is the retention span in timestamp ticks: lowWater follows
// Peek() - window (saturating), so versions younger than the window
// are never offered to Truncate. window == 0 keeps today's behavior —
// prune everything in-flight queries no longer need — which makes NO
// retention promise to historical reads: the watermark follows Peek()
// itself, and only reads at not-yet-pruned timestamps succeed.
type ReadBound struct {
	src    Source
	window TS
	pruned PaddedUint64 // fetch-max high-water mark of intended prune points
}

// NewReadBound wires a watermark over src with the given retention
// window (in source ticks; 0 = no retention guarantee).
func NewReadBound(src Source, window TS) *ReadBound {
	return &ReadBound{src: src, window: window}
}

// Pruned reports the published prune watermark: requested timestamps
// strictly below it are refused by CheckAt.
func (rb *ReadBound) Pruned() TS {
	if rb == nil {
		return 0
	}
	return rb.pruned.Load()
}

// lowWater is the newest timestamp the retention window permits
// pruning up to: Peek() - window, saturating at zero. A zero window
// places no retention floor (the low water is "now").
//
// The window is measured in ticks of the CURRENT source generation
// (PayloadOf strips an adaptive source's generation bits; for plain
// sources payload == timestamp). While the current generation is
// younger than the window the low water saturates all the way to zero
// — NOT to the generation floor — because the floor would numerically
// dominate every previous generation's timestamps and instantly expire
// pre-switch history the window still owes. Once the generation ages
// past the window, prior generations fall out of retention together:
// cross-generation tick arithmetic is meaningless, so "older than the
// whole current generation's window" is the honest expiry point.
func (rb *ReadBound) lowWater() TS {
	now := rb.src.Peek()
	if rb.window == 0 {
		return now
	}
	if rb.window >= PayloadOf(now) {
		return 0
	}
	return now - rb.window
}

// PruneBound publishes the intended prune point and returns the bound
// truncation may actually use: min(low water, MinActiveRQ). The
// publish happens BEFORE the announcement-slot scan — see the type
// comment for why that order is the whole correctness argument.
func (rb *ReadBound) PruneBound(reg *Registry) TS {
	w := rb.lowWater()
	for {
		cur := rb.pruned.Load()
		if w <= cur {
			w = cur
			break
		}
		if rb.pruned.CompareAndSwap(cur, w) {
			break
		}
	}
	if min := reg.MinActiveRQ(); min < w {
		w = min
	}
	return w
}

// CheckAt validates a requested historical timestamp against the
// watermark and the source. It must be called AFTER the reader has
// reserved its announcement slot (BeginRQ) for the publish-before-
// prune protocol to hold. Nil-safe: a nil bound accepts everything
// (history-incapable cells are gated at the facade instead).
func (rb *ReadBound) CheckAt(ts TS) error {
	if rb == nil {
		return nil
	}
	if ts > rb.src.Peek() {
		return ErrFutureTimestamp
	}
	if ts < rb.pruned.Load() {
		return ErrTruncatedHistory
	}
	return nil
}

// pruneEvery is how many of a thread's updates share one scan of the
// announcement slots.
const pruneEvery = 64

// PruneBoundOf is the structures' truncation bound: every successful
// write truncates the chain it just extended against it. The scan behind
// it — the watermark protocol when a ReadBound is wired, plain
// MinActiveRQ when not — runs once per pruneEvery calls and is cached on
// th (owner-only words, nothing shared is written per update).
//
// A cached bound is used after the scan that produced it, so it must
// also hold for snapshots reserved since: it is capped by a source read
// taken BEFORE the scan. A query the scan missed reserved after that
// read and takes its timestamp later still, so its bound is >= the cap
// and Truncate keeps the version it reads. Without the cap an idle
// registry caches Pending, and the next 63 writes cut versions a query
// started in between still needs.
func PruneBoundOf(th *Thread, rb *ReadBound, src Source) TS {
	if th.pruneLeft == 0 {
		th.pruneLeft = pruneEvery
		ceil := src.Peek()
		if rb == nil {
			th.pruneBound = min(ceil, th.reg.MinActiveRQ())
		} else {
			th.pruneBound = min(ceil, rb.PruneBound(th.reg))
		}
	}
	th.pruneLeft--
	return th.pruneBound
}
