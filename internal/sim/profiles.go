package sim

import "fmt"

// Structure and technique cost constants (nanoseconds of core-local
// work), chosen for a half-full 1M key range as in the paper's setup.
// They set absolute levels only; the paper-relevant *shapes* come from
// the line/lock contention model.
const (
	// Elemental operation traversal costs.
	CostBST    = 350 // lock-free external BST
	CostCitrus = 420 // Citrus tree (RCU readers, per-node locks)
	// CostSkip folds in the hot-tower coherence misses a traversal pays
	// at scale, which keep the skip list traversal-bound in read-heavy
	// mixes (the Figure 5 "structure bottleneck outweighs the
	// timestamp" observation).
	CostSkip = 1300
	CostLazy = 60000 // lazy linked list: O(n) walk dominates everything

	// Range query of 100 keys: positioning plus per-key collection.
	CostRQBase   = 400
	CostRQPerKey = 9

	// Technique bookkeeping on the update path.
	CostVcasVersion = 15 // allocate+link a version, help label
	CostBundleEntry = 60 // prepare+finalize a bundle entry (pending window, alloc)
	CostEBRLabel    = 5  // store into the node label inside the section

	// MicrobenchLoopNs is the Figure 1 harness's per-acquisition loop
	// overhead (operation counter, branch, store of the result).
	MicrobenchLoopNs = 40

	// SkipHotLines models the skip list's contended tower region: the
	// handful of high-level index nodes most operations touch. This is
	// the structure-internal bottleneck the paper says outweighs the
	// timestamp in Figure 5's read-heavy mixes.
	SkipHotLines = 4
)

// Tech identifies a range-query technique for profile construction.
type Tech int

const (
	// TechVcas: range queries advance the timestamp; updates read it.
	TechVcas Tech = iota
	// TechBundle: updates advance the timestamp; range queries read it.
	TechBundle
	// TechEBR: updates label under a shared lock; range queries advance
	// under the exclusive lock.
	TechEBR
)

// Workload is a U-RQ-C mix (percent updates, range queries, contains).
type Workload struct {
	U, RQ, C int
}

// String formats the mix the way the paper writes it, e.g. "10-10-80".
func (w Workload) String() string {
	return fmt.Sprintf("%d-%d-%d", w.U, w.RQ, w.C)
}

// rqCost returns the range-query work for the paper's 100-key queries.
func rqCost() float64 { return CostRQBase + 100*CostRQPerKey }

// BuildOps constructs the operation mix for one (technique, source,
// structure, workload) arm. hw selects the hardware timestamp; fresh
// contended resources are created per call so runs are independent.
// hotLines > 0 adds structure-internal contention: every operation
// touches one of that many hot cache lines (updates write them) — the
// skip list's tower contention, which the paper identifies as the
// bottleneck that hides the timestamp in read-heavy Figure 5 mixes.
func BuildOps(m *Machine, tech Tech, hw bool, structCost float64, wl Workload, hotLines int) []OpSpec {
	line := NewLine()
	lock := NewRWLock()
	tsc := TSCRead(m.TSCFenced)
	rq := rqCost()

	var upd, rqs []Step
	cont := []Step{Work(structCost)}
	switch tech {
	case TechVcas:
		if hw {
			upd = []Step{Work(structCost), tsc, Work(CostVcasVersion)}
			rqs = []Step{tsc, Work(rq)}
		} else {
			upd = []Step{Work(structCost), ReadLine(line), Work(CostVcasVersion)}
			rqs = []Step{WriteLine(line), Work(rq)}
		}
	case TechBundle:
		if hw {
			upd = []Step{Work(structCost), tsc, Work(CostBundleEntry)}
			rqs = []Step{tsc, Work(rq)}
		} else {
			upd = []Step{Work(structCost), WriteLine(line), Work(CostBundleEntry)}
			rqs = []Step{ReadLine(line), Work(rq)}
		}
	case TechEBR:
		// The lock is retained in both arms — the paper's key negative
		// result. Only the timestamp access inside the section changes.
		if hw {
			upd = []Step{Work(structCost), Shared(lock, tsc, Work(CostEBRLabel))}
			rqs = []Step{Excl(lock, tsc), Work(rq)}
		} else {
			upd = []Step{Work(structCost), Shared(lock, ReadLine(line), Work(CostEBRLabel))}
			rqs = []Step{Excl(lock, WriteLine(line)), Work(rq)}
		}
	}
	if hotLines > 0 {
		// Updates additionally serialize on the structure's hot lines
		// (tower locks and pointers), capping update-heavy throughput
		// for both timestamp sources.
		pool := make([]*Line, hotLines)
		for i := range pool {
			pool[i] = NewLine()
		}
		upd = append([]Step{PoolWrite(pool)}, upd...)
	}
	return []OpSpec{
		{Name: "update", Weight: wl.U, Steps: upd},
		{Name: "rq", Weight: wl.RQ, Steps: rqs},
		{Name: "contains", Weight: wl.C, Steps: cont},
	}
}

// TimestampOps builds the Figure 1 microbenchmark mixes: pure timestamp
// acquisition (workNs = 0, top panel) or acquisition interleaved with
// local work (bottom panel).
func TimestampOps(m *Machine, kind string, workNs float64) []OpSpec {
	line := NewLine()
	var acquire Step
	switch kind {
	case "Logical":
		acquire = WriteLine(line)
	case "RDTSCP":
		acquire = TSCRead(m.TSCFenced)
	case "RDTSC-CPUID":
		acquire = TSCRead(m.TSCCpuid)
	case "RDTSCP-nofence":
		acquire = TSCRead(m.TSCBare)
	case "RDTSC-nofence":
		acquire = TSCRead(m.TSCBare)
	default:
		panic("sim: unknown timestamp kind " + kind)
	}
	// Every acquisition carries the measurement harness's loop overhead
	// (operation counting, branch), which is what keeps the paper's top
	// panel ratio near 100x rather than the bare instruction ratio.
	steps := []Step{acquire, Work(MicrobenchLoopNs + workNs)}
	return []OpSpec{{Name: kind, Weight: 100, Steps: steps}}
}
