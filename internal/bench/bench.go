// Package bench is the native benchmark harness replicating the paper's
// experimental setup (§III-B): mixed U-RQ-C workloads over uniformly
// random keys in a 1,000,000-key range, structures prefilled to half,
// 100-key range queries, timed trials averaged with their coefficient of
// variation reported. Worker goroutines are pinned to OS threads and, on
// Linux, to CPUs in the paper's NUMA-zone-saturating order.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tscds/internal/affinity"
	"tscds/internal/core"
)

// Target is the data structure surface the harness drives.
type Target interface {
	Insert(th *core.Thread, key, val uint64) bool
	Delete(th *core.Thread, key uint64) bool
	Contains(th *core.Thread, key uint64) bool
	RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV
}

// Registrar hands out thread handles (implemented by the facade maps and
// by raw registries).
type Registrar interface {
	RegisterThread() (*core.Thread, error)
}

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
	Pin      bool // pin workers to CPUs (paper policy)
	Seed     uint64
	// Sample, when non-nil, is invoked by each worker every sampleEvery
	// operations with the worker's thread ID — the hook the drivers use
	// for TSC health cross-checks. Nil costs one pointer test per op.
	Sample func(tid int)
}

// sampleEvery is how many operations pass between Options.Sample calls
// on one worker.
const sampleEvery = 64

// Result summarizes one measurement.
type Result struct {
	Threads  int
	Trials   []float64 // Mops/s per trial
	Mean     float64   // Mops/s
	CV       float64   // coefficient of variation, percent
	OpSplit  [3]int64  // completed updates, range queries, contains
	Workload Workload
}

// Prefill inserts half the key range in uniformly random order, as in
// the paper's setup; balanced insert/delete mixes then keep the size
// stable. Random order matters beyond fidelity: the BSTs are unbalanced,
// so sorted insertion would degenerate them into linked lists.
func Prefill(t Target, r Registrar, keyRange uint64) error {
	th, err := r.RegisterThread()
	if err != nil {
		return err
	}
	defer th.Release()
	for _, k := range PrefillKeys(keyRange) {
		t.Insert(th, k, k)
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

// Run measures throughput of target under the workload.
func Run(target Target, reg Registrar, wl Workload, opts Options) (Result, error) {
	if !wl.Valid() {
		return Result{}, fmt.Errorf("bench: workload %s does not sum to 100", wl.Label())
	}
	if wl.KeyRange == 0 {
		return Result{}, fmt.Errorf("bench: workload %s has zero key range", wl.Label())
	}
	if opts.Trials <= 0 {
		opts.Trials = 1
	}
	res := Result{Threads: opts.Threads, Workload: wl}
	var pinner *affinity.Pinner
	if opts.Pin {
		pinner = affinity.NewPinner()
	}
	for trial := 0; trial < opts.Trials; trial++ {
		mops, split, err := runTrial(target, reg, wl, opts, pinner, trial)
		if err != nil {
			return Result{}, err
		}
		res.Trials = append(res.Trials, mops)
		for i := range split {
			res.OpSplit[i] += split[i]
		}
	}
	res.Mean, res.CV = meanCV(res.Trials)
	return res, nil
}

func runTrial(target Target, reg Registrar, wl Workload, opts Options,
	pinner *affinity.Pinner, trial int) (float64, [3]int64, error) {

	type counts struct {
		ops [3]int64
		_   [40]byte
	}
	perWorker := make([]counts, opts.Threads)
	var stop core.PaddedBool
	var start sync.WaitGroup
	var ready, done sync.WaitGroup
	start.Add(1)

	threads := make([]*core.Thread, opts.Threads)
	for i := 0; i < opts.Threads; i++ {
		th, err := reg.RegisterThread()
		if err != nil {
			return 0, [3]int64{}, err
		}
		threads[i] = th
	}

	for i := 0; i < opts.Threads; i++ {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			if pinner != nil {
				unpin := pinner.Pin(i)
				defer unpin()
			}
			th := threads[i]
			r := rng{s: opts.Seed + uint64(i)*0x9E3779B97F4A7C15 + uint64(trial)*0x100000001B3 + 1}
			buf := make([]core.KV, 0, wl.RQLen+16)
			var n uint64
			ready.Done()
			start.Wait()
			for !stop.Load() {
				x := r.next()
				op := int(x % 100)
				key := (x >> 8) % wl.KeyRange
				switch {
				case op < wl.U:
					// Half inserts, half deletes, to keep size stable.
					if x&(1<<63) != 0 {
						target.Insert(th, key, key)
					} else {
						target.Delete(th, key)
					}
					perWorker[i].ops[0]++
				case op < wl.U+wl.RQ:
					lo := key
					hi := lo + wl.RQLen - 1
					buf = target.RangeQuery(th, lo, hi, buf[:0])
					perWorker[i].ops[1]++
				default:
					target.Contains(th, key)
					perWorker[i].ops[2]++
				}
				n++
				if opts.Sample != nil && n%sampleEvery == 0 {
					opts.Sample(th.ID)
				}
			}
		}(i)
	}
	ready.Wait()
	begin := time.Now()
	start.Done()
	time.Sleep(opts.Duration)
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(begin).Seconds()
	for _, th := range threads {
		th.Release()
	}

	var split [3]int64
	var total int64
	for i := range perWorker {
		for j := 0; j < 3; j++ {
			split[j] += perWorker[i].ops[j]
			total += perWorker[i].ops[j]
		}
	}
	return float64(total) / elapsed / 1e6, split, nil
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

// Table renders results as an aligned text table, one row per thread
// count, one column per series; each cell is the mean of the trials and
// their coefficient of variation, as the paper reports its points (§III).
func Table(title string, threads []int, series map[string][]Result) string {
	var names []string
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%8s", "threads")
	for _, n := range names {
		fmt.Fprintf(&b, " %22s", n)
	}
	b.WriteString("\n")
	for i, t := range threads {
		fmt.Fprintf(&b, "%8d", t)
		for _, n := range names {
			cell := "-"
			if rs := series[n]; i < len(rs) {
				cell = fmt.Sprintf("%.2f Mops ±%4.1f%%", rs[i].Mean, rs[i].CV)
			}
			fmt.Fprintf(&b, " %22s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
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
