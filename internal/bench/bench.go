// Package bench is the native benchmark harness replicating the paper's
// experimental setup (§III-B): mixed U-RQ-C workloads over uniformly
// random keys in a 1,000,000-key range, structures prefilled to half,
// 100-key range queries, timed trials averaged with their coefficient of
// variation reported. One timed loop (runTrial) runs both measurements: a
// map under a mix (Run) and Figure 1's timestamp reads (RunRead). Every
// worker goroutine is pinned to its OS thread and, on Linux, to a CPU in
// the paper's NUMA-zone-saturating order; a worker that cannot be pinned
// runs unpinned, and Result.PinErr says so.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"tscds"
	"tscds/internal/affinity"
	"tscds/internal/core"
)

// Workload is the paper's U-RQ-C mix plus its key-space parameters.
type Workload struct {
	U, RQ, C int    // percentages; must sum to 100
	KeyRange uint64 // keys drawn from [0, KeyRange)
	RQLen    uint64 // range query span in keys
}

// PaperWorkload returns the paper's parameters for a given mix.
func PaperWorkload(u, rq, c int) Workload {
	return Workload{U: u, RQ: rq, C: c, KeyRange: 1_000_000, RQLen: 100}
}

// Label formats the mix as in the paper ("10-10-80").
func (w Workload) Label() string { return fmt.Sprintf("%d-%d-%d", w.U, w.RQ, w.C) }

// Valid reports whether the mix sums to 100.
func (w Workload) Valid() bool {
	return w.U >= 0 && w.RQ >= 0 && w.C >= 0 && w.U+w.RQ+w.C == 100
}

// Options controls a measurement.
type Options struct {
	Threads  int
	Duration time.Duration
	Trials   int
	Seed     uint64
	// Sample, when non-nil, is invoked by each of Run's workers every
	// sampleEvery operations with the worker's thread ID — the hook the
	// drivers use for TSC health cross-checks. Nil costs one pointer test
	// per op.
	Sample func(tid int)
}

// sampleEvery is how many operations pass between Options.Sample calls
// on one worker.
const sampleEvery = 64

// Result summarizes one measurement.
type Result struct {
	Trials  []float64 // Mops/s per trial
	Mean    float64   // Mops/s
	CV      float64   // coefficient of variation, percent
	OpSplit [3]int64  // completed updates, range queries, contains
	// PinErr is the first pinning failure of any worker in any trial;
	// the workers it names ran unpinned.
	PinErr error
}

// Prefill inserts half the key range in uniformly random order, as in
// the paper's setup; balanced insert/delete mixes then keep the size
// stable. Random order matters beyond fidelity: the BSTs are unbalanced,
// so sorted insertion would degenerate them into linked lists.
func Prefill(m tscds.Map, keyRange uint64) error {
	th, err := m.RegisterThread()
	if err != nil {
		return err
	}
	defer th.Release()
	for _, k := range PrefillKeys(keyRange) {
		m.Insert(th, k, k)
	}
	return nil
}

// PrefillKeys returns a deterministic random half of [0, keyRange) in
// shuffled order.
func PrefillKeys(keyRange uint64) []uint64 {
	keys := make([]uint64, keyRange)
	for i := range keys {
		keys[i] = uint64(i)
	}
	r := rng{s: 0xC0FFEE123456789}
	for i := len(keys) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys[:keyRange/2]
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// Run measures the throughput of m under the workload. Each worker keeps
// one thread handle of m for every trial.
func Run(m tscds.Map, wl Workload, opts Options) (Result, error) {
	if !wl.Valid() {
		return Result{}, fmt.Errorf("bench: workload %s does not sum to 100", wl.Label())
	}
	if wl.KeyRange == 0 {
		return Result{}, fmt.Errorf("bench: workload %s has zero key range", wl.Label())
	}
	var threads []*core.Thread
	defer func() {
		for _, th := range threads {
			th.Release()
		}
	}()
	for range opts.Threads {
		th, err := m.RegisterThread()
		if err != nil {
			return Result{}, err
		}
		threads = append(threads, th)
	}
	return measure(opts, func(trial int) []worker {
		workers := make([]worker, len(threads))
		for i, th := range threads {
			r := rng{s: opts.Seed + uint64(i)*0x9E3779B97F4A7C15 + uint64(trial)*0x100000001B3 + 1}
			workers[i] = func(stop *core.PaddedBool, ops *[3]int64) { mix(m, th, wl, r, opts.Sample, stop, ops) }
		}
		return workers
	}), nil
}

// mix is a worker of Run: the paper's U-RQ-C mix over uniform keys.
func mix(m tscds.Map, th *core.Thread, wl Workload, r rng, sample func(int), stop *core.PaddedBool, ops *[3]int64) {
	buf := make([]core.KV, 0, wl.RQLen+16)
	var n uint64
	for !stop.Load() {
		x := r.next()
		op := int(x % 100)
		key := (x >> 8) % wl.KeyRange
		switch {
		case op < wl.U:
			// Half inserts, half deletes, to keep size stable.
			if x&(1<<63) != 0 {
				m.Insert(th, key, key)
			} else {
				m.Delete(th, key)
			}
			ops[0]++
		case op < wl.U+wl.RQ:
			buf = m.RangeQuery(th, key, key+wl.RQLen-1, buf[:0])
			ops[1]++
		default:
			m.Contains(th, key)
			ops[2]++
		}
		n++
		if sample != nil && n%sampleEvery == 0 {
			sample(th.ID)
		}
	}
}

// RunRead measures Figure 1 on one timestamp read: each worker calls read
// back to back and, with work, does 100 multiply-adds of local work after
// each call (the bottom panel). A read counts as a contains.
func RunRead(read func() uint64, work bool, opts Options) Result {
	w := func(stop *core.PaddedBool, ops *[3]int64) {
		sink := uint64(0)
		for !stop.Load() {
			sink += read()
			if work {
				for j := 0; j < 100; j++ {
					sink = sink*2862933555777941757 + 3037000493
				}
			}
			ops[2]++
		}
		_ = sink
	}
	return measure(opts, func(int) []worker {
		workers := make([]worker, opts.Threads)
		for i := range workers {
			workers[i] = w
		}
		return workers
	})
}

// A worker is one goroutine's part of a trial: it runs operations until
// stop is set and counts each completed one in ops by class (update,
// range query, contains).
type worker func(stop *core.PaddedBool, ops *[3]int64)

// measure runs opts.Trials trials; workers builds each trial's workers,
// one per thread.
func measure(opts Options, workers func(trial int) []worker) Result {
	order := affinity.PinOrder(affinity.Detect())
	var res Result
	for trial := 0; trial < max(opts.Trials, 1); trial++ {
		runTrial(&res, workers(trial), order, opts.Duration)
	}
	res.Mean, res.CV = meanCV(res.Trials)
	return res
}

// runTrial is the harness's one timed loop: it starts one goroutine per
// worker, pinned to the next CPU of order, releases them together and
// lets them run for d. It adds the trial to res: the workers' total rate
// in Mops/s, their operations by class and the first pinning failure.
// Each worker counts in and reports through its own cache line.
func runTrial(res *Result, workers []worker, order []int, d time.Duration) {
	type slot struct {
		ops [3]int64
		err error
		_   [24]byte
	}
	slots := make([]slot, len(workers))
	var stop core.PaddedBool
	var ready, start, done sync.WaitGroup
	start.Add(1)
	for i, w := range workers {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			unpin, err := affinity.Pin(order, i)
			defer unpin()
			slots[i].err = err
			ready.Done()
			start.Wait()
			w(&stop, &slots[i].ops)
		}()
	}
	ready.Wait()
	begin := time.Now()
	start.Done()
	time.Sleep(d)
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(begin).Seconds()

	var total int64
	for i := range slots {
		for j, n := range slots[i].ops {
			res.OpSplit[j] += n
			total += n
		}
		if res.PinErr == nil {
			res.PinErr = slots[i].err
		}
	}
	res.Trials = append(res.Trials, float64(total)/elapsed/1e6)
}

func meanCV(xs []float64) (mean, cv float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 || mean == 0 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/float64(len(xs)-1)) / mean * 100
}

// ParseThreads parses a comma-separated thread-count list ("1,2,4").
// An empty string yields powers of two up to the host CPU count (always
// including the CPU count itself) — the drivers' default sweep.
func ParseThreads(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		var out []int
		for n := 1; n <= runtime.NumCPU(); n *= 2 {
			out = append(out, n)
		}
		if out[len(out)-1] != runtime.NumCPU() {
			out = append(out, runtime.NumCPU())
		}
		return out, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bench: bad thread count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
