// Package linearize is the library's linearizability-checking harness:
// a history-recording stress driver plus a snapshot-oracle checker that
// together validate the paper's central claim — range queries remain
// linearizable when the logical counter is swapped for a hardware
// timestamp — over every (structure, technique, source) combination the
// facade accepts.
//
// The methodology follows the validation style of the vCAS work (Wei et
// al., PPoPP 2021) and exploits the observation of Khyzha et al. ("Proving
// Linearizability Using Partial Orders") that timestamp-ordered histories
// admit a cheap sequential-witness check:
//
//  1. Run: worker goroutines drive a tscds.Map, recording one Event per
//     operation — kind, arguments, result, and the wall-clock interval
//     [Inv, Ret] bracketing the operation — into per-thread logs. Each
//     log is written by exactly one goroutine with no synchronization on
//     the hot path (the harness perturbs the schedule as little as
//     possible); logs are published once, at worker exit.
//
//  2. Check: successful updates are replayed per key in timestamp order
//     against a reference map. Every inserted value is unique, so the
//     alternation Insert/Delete/Insert/... on one key reconstructs the
//     version sequence; real-time interval bounds then give each version
//     a possible-presence window [estStart, lstEnd] and a
//     certain-presence window (lstStart, estEnd). A range-query result
//     is accepted only if some single instant inside its own interval is
//     consistent with every observed pair's possible window and no
//     absent key's certain window — i.e. the result equals an atomic
//     snapshot of the reference consistent with real-time order.
//     Contains/Get and failed updates are justified by the same
//     interval-overlap argument.
//
// The checker is sound against false alarms up to one caveat: when
// several successful updates to the same key overlap in real time they
// admit several witness orders, and it holds up to 64 of them against
// that key's own reads (invocation order first), keeping the first that
// explains them all — not every combination across keys. A stalled thread
// makes such a knot about once in twenty matrix runs on a 2-CPU host;
// several on one key, beyond the bound, remain vanishingly rare. A
// reported violation includes the seed so the run can be replayed.
//
// Config.HistPct extends the same oracle to MVCC time travel: workers
// periodically capture a timestamp with Map.Now() (recording the
// wall-clock interval bracketing the capture) and later issue
// GetAt/RangeQueryAt at it. The snapshot at a captured timestamp is the
// map's state at some instant of the capture interval, so the checker
// validates a historical read exactly like a live one — but against
// [TSInv, TSRet], the capture interval, instead of [Inv, Ret]. A read
// refused with ErrTruncatedHistory is recorded (Trunc) and skipped: the
// retention window, not linearizability, decides those.
//
// Config.FaultRate is the fault-injection hook: it corrupts recorded
// range-query results with mutations no real history can produce,
// proving the checker can actually fail (see TestCheckerDetectsInjectedFault).
package linearize

import (
	"fmt"
	"slices"

	"tscds"
)

// OpKind labels a recorded operation.
type OpKind uint8

// Recorded operation kinds.
const (
	OpInsert OpKind = iota
	OpDelete
	OpContains
	OpGet
	OpRange
	OpGetAt   // historical Get at a captured past timestamp
	OpRangeAt // historical RangeQuery at a captured past timestamp
)

// String names the kind in violation reports.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "Insert"
	case OpDelete:
		return "Delete"
	case OpContains:
		return "Contains"
	case OpGet:
		return "Get"
	case OpRange:
		return "RangeQuery"
	case OpGetAt:
		return "GetAt"
	case OpRangeAt:
		return "RangeQueryAt"
	}
	return "unknown"
}

// Event is one recorded invocation/response pair. Inv and Ret are
// nanoseconds on the monotonic clock since the run's base instant; the
// operation's linearization point lies somewhere in [Inv, Ret].
type Event struct {
	Op     OpKind
	Thread int
	Key    uint64     // Insert/Delete/Contains/Get
	Val    uint64     // Insert: value written; Get: value observed when OK
	Lo, Hi uint64     // RangeQuery bounds
	OK     bool       // result of Insert/Delete/Contains/Get
	KVs    []tscds.KV // RangeQuery result (unsorted)
	Inv    int64
	Ret    int64

	// Historical reads (OpGetAt/OpRangeAt) carry the timestamp they read
	// at, plus the wall-clock interval [TSInv, TSRet] bracketing the
	// Now() call that captured it. The snapshot at TS is the map's state
	// at some instant of that interval, so the checker validates the
	// observation against [TSInv, TSRet] rather than [Inv, Ret]. Trunc
	// marks a read refused with ErrTruncatedHistory — a legal outcome the
	// checker skips.
	TS           uint64
	TSInv, TSRet int64
	Trunc        bool
}

// History is a complete recorded run. Threads[i] is worker i's log for
// i < Cfg.Workers; the final slice is the sequential prefill log.
type History struct {
	Cfg     Config
	Threads [][]Event
}

// Events returns the total number of recorded operations.
func (h *History) Events() int {
	n := 0
	for _, log := range h.Threads {
		n += len(log)
	}
	return n
}

// Count returns how many recorded operations are of one of the kinds ops,
// and how many of those were retention refusals.
func (h *History) Count(ops ...OpKind) (n, trunc int) {
	for _, log := range h.Threads {
		for i := range log {
			if slices.Contains(ops, log[i].Op) {
				n++
				if log[i].Trunc {
					trunc++
				}
			}
		}
	}
	return n, trunc
}

// Summary is a one-line operation census for test logs.
func (h *History) Summary() string {
	var counts [OpRangeAt + 1]int
	for op := range counts {
		counts[op], _ = h.Count(OpKind(op))
	}
	_, trunc := h.Count(OpGetAt, OpRangeAt)
	return fmt.Sprintf("%d events (ins %d, del %d, ctn %d, get %d, rq %d, getat %d, rqat %d, trunc %d)",
		h.Events(), counts[OpInsert], counts[OpDelete],
		counts[OpContains], counts[OpGet], counts[OpRange],
		counts[OpGetAt], counts[OpRangeAt], trunc)
}

// Config parameterizes Run. The zero value is usable: every field has a
// sensible default.
type Config struct {
	// Workers is the number of concurrent driver goroutines (default 4).
	Workers int
	// Ops is the number of operations per worker (default 2000).
	Ops int
	// KeyRange restricts keys to [0, KeyRange) (default 128): small
	// enough that every key sees contention, large enough for real
	// range results.
	KeyRange uint64
	// RangeSpan bounds the width of generated range queries (default 32).
	RangeSpan uint64
	// KeyStride multiplies every key and range width drawn (default 1),
	// spreading the same contention over the key blocks of every shard.
	KeyStride uint64
	// Prefill seeds the map with this many keys before workers start
	// (default KeyRange/2).
	Prefill int
	// Seed makes runs reproducible: the same seed yields the same
	// per-thread operation sequences (default 1). Interleavings still
	// vary run to run; the seed pins the workload, which in practice
	// reproduces schedule-dependent failures within a few attempts.
	Seed int64
	// InsertPct, DeletePct, RangePct and GetPct set the operation mix in
	// percent; the remainder is Contains (defaults 25/20/15/10).
	InsertPct, DeletePct, RangePct, GetPct int
	// HistPct adds time-travel reads to the mix: that percentage of each
	// worker's operations read at a past timestamp the worker captured
	// earlier with Map.Now() (half GetAt, half RangeQueryAt). Zero (the
	// default) disables historical reads; only enable them on maps whose
	// technique retains history (vCAS, Bundle) — an ErrHistoryUnsupported
	// refusal aborts the run as a harness configuration error.
	HistPct int
	// FaultRate is the fault-injection hook: the probability, per range
	// query (live or historical), of corrupting the recorded result with
	// a mutation that no correct execution can produce. Zero (the
	// default) in normal use; set to 1 to prove the checker detects
	// broken snapshots.
	FaultRate float64
	// Midpoint, when set, is called once by worker 0 halfway through its
	// operation sequence, while every other worker keeps running. It is
	// the environment-fault hook: inject a TSC backstep here to force an
	// Adaptive source to switch generations mid-history, so the checker
	// validates range queries that span the switch.
	Midpoint func()
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Ops <= 0 {
		c.Ops = 2000
	}
	if c.KeyRange == 0 {
		c.KeyRange = 128
	}
	if c.RangeSpan == 0 {
		c.RangeSpan = 32
	}
	c.KeyStride = max(c.KeyStride, 1)
	if c.Prefill == 0 {
		c.Prefill = int(c.KeyRange / 2)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.InsertPct <= 0 {
		c.InsertPct = 25
	}
	if c.DeletePct <= 0 {
		c.DeletePct = 20
	}
	if c.RangePct <= 0 {
		c.RangePct = 15
	}
	if c.GetPct <= 0 {
		c.GetPct = 10
	}
	return c
}
