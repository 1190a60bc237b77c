package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Registry tracks the threads operating on a data structure and the
// timestamp of each thread's in-flight range query. Every ported
// technique needs this for garbage collection: a vCAS version, a bundle
// entry or a limbo-list node may be reclaimed only once no active range
// query could still need it, i.e. once it is older than MinActiveRQ.
// The shards of a partitioned map share one registry, as they share one
// source: a thread has one slot, and one announcement covers every shard
// its read collects.
//
// Each slot sits on its own cache line pair so announcements never
// contend with one another or with the logical timestamp.
type Registry struct {
	mu   sync.Mutex
	free []int
	// live is the high-water mark of slots ever handed out: IDs below it
	// have been registered at least once, IDs at or above it never.
	// Written under mu, read lock-free by the per-slot scans (see Live).
	live  atomic.Int64
	slots []PaddedUint64 // Pending = no active range query
}

// DefaultMaxThreads is the registry capacity used by the public facade.
const DefaultMaxThreads = 256

// NewRegistry returns a registry with capacity for maxThreads concurrent
// thread handles, DefaultMaxThreads when maxThreads is not positive.
func NewRegistry(maxThreads int) *Registry {
	if maxThreads <= 0 {
		maxThreads = DefaultMaxThreads
	}
	r := &Registry{slots: make([]PaddedUint64, maxThreads)}
	for i := range r.slots {
		r.slots[i].Store(Pending)
	}
	return r
}

// Cap returns the registry capacity.
func (r *Registry) Cap() int { return len(r.slots) }

// Live returns the number of slots ever handed out. Every per-slot scan
// (MinActiveRQ here, epoch advance/limbo walks, RCU grace periods)
// stops at it instead of Cap: a slot at or above the mark has never
// announced, pinned or retired anything. The mark only grows, and
// Register raises it before returning the handle, so a registration
// racing a scan is indistinguishable from the scan having read that
// slot a moment before the thread's first BeginRQ/Pin/ReadLock — a
// window every scanning protocol already tolerates (BeginRQ precedes
// the timestamp read, Pin republishes until its epoch is current, a
// reader entering after a grace period starts does not delay it).
func (r *Registry) Live() int { return int(r.live.Load()) }

// Thread is a per-goroutine handle. Handles are not safe for concurrent
// use by multiple goroutines; each worker registers its own.
type Thread struct {
	// ID is the slot index, usable to index per-thread structures
	// (limbo lists, RCU slots) sized by Registry.Cap; -1 once released.
	// Release reads it under reg.mu to refuse a double release: pushing
	// the same slot ID onto free twice would hand it to two goroutines,
	// whose racing announcements would silently break the MinActiveRQ
	// reclamation invariant.
	ID  int
	reg *Registry
	// pruneBound is the truncation bound PruneBoundOf cached for this
	// thread, pruneLeft the number of calls it still serves.
	pruneBound TS
	pruneLeft  int
	// point is PointBuf's storage.
	point [1]KV
	// The padding makes a Thread 128 bytes, a size class the allocator
	// aligns to cache lines: no other object, written by another thread,
	// shares a line with the fields every operation reads.
	_ [80]byte
}

// PointBuf returns an empty buffer with room for one pair, owned by the
// thread: a width-zero read collects into it without allocating, where a
// caller's own one-pair array would escape through the collector's
// interface call. The pair is valid until the thread's next PointBuf.
func (t *Thread) PointBuf() []KV { return t.point[:0] }

// Register allocates a thread handle, reusing released slots.
func (r *Registry) Register() (*Thread, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var id int
	switch {
	case len(r.free) > 0:
		id = r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
	case r.Live() < len(r.slots):
		id = r.Live()
		r.live.Store(int64(id + 1))
	default:
		return nil, fmt.Errorf("core: registry full (%d threads)", len(r.slots))
	}
	r.slots[id].Store(Pending)
	return &Thread{ID: id, reg: r}, nil
}

// MustRegister is Register for callers that size the registry correctly
// by construction (benchmark harness, examples).
func (r *Registry) MustRegister() *Thread {
	t, err := r.Register()
	if err != nil {
		panic(err)
	}
	return t
}

// Release returns the slot to the registry and sets ID to -1, so a use of
// the handle afterwards that indexes a per-thread slot panics rather than
// write into the slot of the handle that reuses it. Release is idempotent:
// a second call is a no-op, so a slot ID can never be pushed onto the free
// list twice and handed out to two goroutines at once.
func (t *Thread) Release() {
	t.reg.mu.Lock()
	defer t.reg.mu.Unlock()
	if t.ID < 0 {
		return
	}
	t.reg.slots[t.ID].Store(Pending)
	t.reg.free = append(t.reg.free, t.ID)
	t.ID = -1
}

// ReservedRQ is the announcement value stored by BeginRQ. It is below
// every real timestamp (sources start at 1), so an in-preparation range
// query blocks all pruning until it publishes its actual timestamp.
const ReservedRQ TS = 0

// BeginRQ reserves this thread's announcement slot *before* the range
// query reads its snapshot timestamp. Without the reservation there is a
// race: a pruner could compute MinActiveRQ between the query obtaining
// its timestamp and announcing it, and reclaim history the query needs.
func (t *Thread) BeginRQ() { t.reg.slots[t.ID].Store(ReservedRQ) }

// AnnounceRQ publishes the timestamp of the range query this thread is
// executing, replacing the BeginRQ reservation. It must remain until
// DoneRQ.
func (t *Thread) AnnounceRQ(ts TS) { t.reg.slots[t.ID].Store(ts) }

// DoneRQ withdraws the announcement.
func (t *Thread) DoneRQ() { t.reg.slots[t.ID].Store(Pending) }

// Registry returns the owning registry.
func (t *Thread) Registry() *Registry { return t.reg }

// MinActiveRQ returns the smallest announced range-query timestamp, or
// Pending when no range query is active. Anything labeled with a
// timestamp strictly below the returned value can no longer be observed
// by any in-flight or future snapshot taken at or after this call
// returns, because future snapshots only receive larger timestamps.
func (r *Registry) MinActiveRQ() TS {
	min := Pending
	for i := range r.slots[:r.Live()] {
		if v := r.slots[i].Load(); v < min {
			min = v
		}
	}
	return min
}
