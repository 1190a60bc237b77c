// Package rcu is a userspace read-copy-update implementation in the
// style of classic URCU (Desnoyers et al.): per-thread reader flags plus
// a global grace-period counter. The Citrus tree (Arbel & Attiya, PPoPP
// 2014) uses it so searches run without locks while deletions wait for
// concurrent readers before unlinking a relocated successor.
//
// Read-side sections are wait-free (two padded atomic stores);
// Synchronize spins until every reader that began before the grace
// period has left its critical section.
package rcu

import (
	"runtime"

	"tscds/internal/core"
)

// RCU coordinates the reader threads of one core.Registry, indexed by
// core.Thread.ID.
type RCU struct {
	reg *core.Registry
	// gp is the grace-period counter; always even when quiescent.
	gp core.PaddedUint64
	// readers[i] holds 0 when thread i is outside a read-side section,
	// else the gp value it observed on entry with the low bit set.
	readers []core.PaddedUint64
}

// New creates an RCU domain for reg's threads.
func New(reg *core.Registry) *RCU {
	r := &RCU{reg: reg, readers: make([]core.PaddedUint64, reg.Cap())}
	r.gp.Store(2)
	return r
}

// ReadLock enters a read-side critical section for thread tid. Sections
// do not nest (the data structures here never need nesting).
func (r *RCU) ReadLock(tid int) {
	r.readers[tid].Store(r.gp.Load() | 1)
}

// ReadUnlock leaves the read-side critical section.
func (r *RCU) ReadUnlock(tid int) {
	r.readers[tid].Store(0)
}

// Synchronize waits until every read-side critical section that was
// running when it was called has completed. Readers that begin after the
// grace period starts observe the new counter value and do not delay it
// — which is also why only slots registered so far are waited on: a
// thread registering now can only enter after the grace period started
// (core.Registry.Live).
func (r *RCU) Synchronize() {
	newGP := r.gp.Add(2)
	for i := range r.readers[:r.reg.Live()] {
		for {
			v := r.readers[i].Load()
			if v&1 == 0 || v >= newGP {
				break
			}
			runtime.Gosched()
		}
	}
}
