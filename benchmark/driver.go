package main

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"tscds"
)

// options says how much of a workload one measurement runs.
type options struct {
	seed        uint64
	source      tscds.SourceKind
	warmup      int           // discarded rounds
	rounds      int           // measured rounds
	minBuilds   int           // fresh builds per arm for setup_s; the first is discarded
	setupBudget time.Duration // builds go on until every arm has used its third of this
	traced      bool          // time every operation, Config.Metrics and Config.Trace on
	spans       *spans        // the benchmark's own span log; nil when not traced
	parent      int           // span the measurement hangs under
}

// worker is one closed-loop client. Its buffers are allocated once, before
// the first trial, so a trial's malloc count is the program's alone.
type worker struct {
	id     int
	th     *tscds.Thread
	refRNG rng // generator of the refcall keys
	sink   uint32
	buf    []tscds.KV
	key    []uint64 // scratch for the duplicate check of unordered results

	stamps [stampRing]uint64

	// Results of the current trial.
	lat                 [numKinds][]uint32 // timed operations, ns
	opBlock             []float64          // ns per operation of each block
	refBlock, scanBlock []float64          // ns per reference lookup and per reference scan of each block
	ops                 int
	inserted, deleted   int
	failed              int
	histReads, refused  int
	checkpoint          rawSpan // worker 0's Checkpoint call, full-stack only
	opSpans, refSpans   []rawSpan
}

// rawSpan is a span a worker keeps until the trial ends.
type rawSpan struct {
	kind       opKind
	start, end time.Time
}

// maxWorkerSpans caps the per-operation and per-ref-block spans one worker
// keeps per trial: every operation of a traced trial is timed, but only the
// first ones become spans, or trace.json would run to gigabytes.
const maxWorkerSpans = 512

// trialResult is what one trial of one arm measured.
type trialResult struct {
	ops int
	// Per operation, per reference lookup and per reference scan: the median
	// block of the trial.
	opNS, refNS, scanNS float64
	relNS               float64 // the reference's cost of the workload's own mix of calls
	wallS               float64
	mallocs             uint64
	gcPauseNS           uint64
	gcCycles            uint32
}

func (t trialResult) mopsRel() float64 { return t.relNS / t.opNS }
func (t trialResult) mops() float64    { return float64(t.ops) / t.wallS / 1e6 }

// instance is one arm's map with everything measured on it.
type instance struct {
	arm     *arm
	m       tscds.DurableMap
	metrics *tscds.Metrics
	fs      *memFS
	ref     *refTree
	wk      [workers]*worker
	hist    bool // the technique serves historical reads

	requested, actual tscds.SourceKind
	prefilled         int
	heapAfterPrefill  uint64

	// Accumulated over measured trials.
	builds             []float64 // refcalls per fresh build, first discarded
	trials             []trialResult
	lat                [numKinds][]float64 // timed operations of measured trials, in refcalls
	checkpointMS       []float64
	inserted, deleted  int // successful, since prefill, warm-up included
	attempted, failed  int
	histReads, refused int
	base               snapshot // program aggregates when the measured rounds began
	end                snapshot // and when they ended

	// Final checks.
	heapBytes  uint64
	liveKeys   int
	closeMS    float64
	recoveryMS float64
	scrapeMS   float64
}

// snapshot is the program's own aggregates at one moment (traced runs).
type snapshot struct {
	metrics tscds.MetricsSnapshot
	trace   tscds.TraceSnapshot
	fsBytes uint64
}

func (in *instance) snapshot(events bool) snapshot {
	var s snapshot
	if in.metrics != nil {
		s.metrics = in.metrics.Snapshot()
		s.trace = in.m.TraceSnapshot(events)
	}
	if in.fs != nil {
		s.fsBytes = in.fs.bytes.Load()
	}
	return s
}

// build constructs the arm's map, registers the workers' threads and
// prefills it: exactly what setup_s times.
func (w *workload) build(ai int, o *options, keys []uint64) (*instance, float64, error) {
	a := &arms[ai]
	in := &instance{arm: a, requested: o.source}
	if w.fullStack {
		in.fs = newMemFS()
	}
	start := time.Now()
	m, metrics, err := w.open(a, o.source, o.traced, in.fs)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", a.name, err)
	}
	in.m, in.metrics = m, metrics
	for i := range in.wk {
		th, err := m.RegisterThread()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", a.name, err)
		}
		in.wk[i] = &worker{id: i, th: th, refRNG: newRNG(o.seed, streamRing, uint64(i))}
	}
	for _, k := range keys {
		if !m.Insert(in.wk[0].th, k, k) {
			return nil, 0, fmt.Errorf("%s: prefill insert of fresh key %d failed", a.name, k)
		}
	}
	secs := time.Since(start).Seconds()
	in.prefilled = len(keys)
	in.actual = m.SourceActual()
	in.hist = a.technique != tscds.EBRRQ
	return in, secs, nil
}

// setup builds every arm fresh at least o.minBuilds times, a GC between
// builds, and keeps the last build of each arm for the trials. A block of
// refcalls after each build puts the build's time in refcalls.
func (w *workload) setup(o *options, keys []uint64, ref *refTree) ([]*instance, error) {
	insts := make([]*instance, len(arms))
	g := newRNG(o.seed, streamRing, workers)
	for ai := range arms {
		sp := o.spans.begin("build "+arms[ai].name, o.parent, -1, 0)
		var builds []float64
		var spent time.Duration
		var ms runtime.MemStats
		var heapBefore uint64
		for len(builds) < o.minBuilds || spent < o.setupBudget/time.Duration(len(arms)) {
			if in := insts[ai]; in != nil {
				if err := in.m.Close(); err != nil {
					return nil, err
				}
				insts[ai] = nil
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heapBefore = ms.HeapAlloc
			begin := time.Now()
			in, secs, err := w.build(ai, o, keys)
			if err != nil {
				return nil, err
			}
			calls := 8 * w.blockLookups
			r0 := time.Now()
			in.wk[0].sink += ref.refcalls(&g, calls)
			refS := time.Since(r0).Seconds() / float64(calls)
			spent += time.Since(begin)
			builds = append(builds, secs/refS)
			insts[ai] = in
		}
		in := insts[ai]
		in.builds = builds
		runtime.GC()
		runtime.ReadMemStats(&ms)
		in.heapAfterPrefill = ms.HeapAlloc - heapBefore
		in.ref = ref
		for _, wk := range in.wk {
			w.provision(wk, o)
		}
		o.spans.end(sp, "builds", len(builds))
	}
	return insts, nil
}

// every is the sampling stride: a traced run times every operation.
func (w *workload) every(o *options) int {
	if o.traced {
		return 1
	}
	return w.sampleEvery
}

// provision allocates a worker's buffers for the longest trial it will run.
func (w *workload) provision(wk *worker, o *options) {
	perWorker := w.trialOps / workers
	every := w.every(o)
	for k := range wk.lat {
		if w.mix[k] > 0 {
			// Twice the class's expected share; a class never overruns it.
			wk.lat[k] = make([]uint32, 0, perWorker/every*w.mix[k]/50+64)
		}
	}
	blocks := perWorker/w.blockOps + 1
	wk.opBlock, wk.refBlock, wk.scanBlock = make([]float64, 0, blocks), make([]float64, 0, blocks), make([]float64, 0, blocks)
	wk.buf = make([]tscds.KV, 0, w.rqLen)
	wk.key = make([]uint64, 0, w.rqLen)
	if o.traced {
		wk.opSpans = make([]rawSpan, 0, maxWorkerSpans)
		wk.refSpans = make([]rawSpan, 0, maxWorkerSpans)
	}
}

// trial runs one arm's fixed tape for one round on both workers.
func (in *instance) trial(w *workload, o *options, round int, measured bool) {
	every := w.every(o)
	sp := o.spans.begin("trial "+in.arm.name, o.parent, round, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	var wg sync.WaitGroup
	for _, wk := range in.wk {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			in.work(wk, w, newRNG(o.seed, streamTape, uint64(round), uint64(wk.id)), every)
		}(wk)
	}
	wg.Wait()
	wall := time.Since(begin)
	runtime.ReadMemStats(&after)

	t := trialResult{
		wallS:     wall.Seconds(),
		mallocs:   after.Mallocs - before.Mallocs,
		gcPauseNS: after.PauseTotalNs - before.PauseTotalNs,
		gcCycles:  after.NumGC - before.NumGC,
	}
	var opBlocks, refBlocks, scanBlocks []float64
	for _, wk := range in.wk {
		t.ops += wk.ops
		in.inserted += wk.inserted
		in.deleted += wk.deleted
		in.attempted += wk.ops
		in.failed += wk.failed
		opBlocks = append(opBlocks, wk.opBlock...)
		refBlocks = append(refBlocks, wk.refBlock...)
		scanBlocks = append(scanBlocks, wk.scanBlock...)
	}
	t.opNS, t.refNS, t.scanNS = median(opBlocks), median(refBlocks), median(scanBlocks)
	scanShare := float64(w.mix[opRQ]+w.mix[opRQAt]) / 100
	t.relNS = scanShare*t.scanNS + (1-scanShare)*t.refNS
	if measured {
		in.trials = append(in.trials, t)
		for _, wk := range in.wk {
			for k := range wk.lat {
				unit := t.refNS // a point operation counts in reference lookups,
				if opKind(k) == opRQ || opKind(k) == opRQAt {
					unit = t.scanNS // a range query in reference scans
				}
				for _, ns := range wk.lat[k] {
					in.lat[k] = append(in.lat[k], float64(ns)/unit)
				}
			}
			in.histReads += wk.histReads
			in.refused += wk.refused
			if c := wk.checkpoint; !c.start.IsZero() {
				in.checkpointMS = append(in.checkpointMS, float64(c.end.Sub(c.start))/1e6)
			}
		}
	}
	for _, wk := range in.wk {
		for _, s := range wk.opSpans {
			o.spans.add(kindNames[s.kind], sp, round, wk.id+1, s.start, s.end)
		}
		for _, s := range wk.refSpans {
			o.spans.add("ref block", sp, round, wk.id+1, s.start, s.end)
		}
		if c := wk.checkpoint; !c.start.IsZero() {
			o.spans.add("checkpoint", sp, round, wk.id+1, c.start, c.end)
		}
	}
	o.spans.end(sp, "ops", t.ops, "op_ns", t.opNS, "refcall_ns", t.refNS, "refscan_ns", t.scanNS, "mops_rel", t.mopsRel())
}

// work is the closed loop of one worker: blocks of w.blockOps map operations,
// each followed by a reference block of lookups and scans, all timed as
// blocks; every every-th operation is also timed on its own.
func (in *instance) work(wk *worker, w *workload, g rng, every int) {
	m, th := in.m, wk.th
	n := w.trialOps / workers
	for k := range wk.lat {
		wk.lat[k] = wk.lat[k][:0]
	}
	wk.opSpans, wk.refSpans = wk.opSpans[:0], wk.refSpans[:0]
	wk.opBlock, wk.refBlock, wk.scanBlock = wk.opBlock[:0], wk.refBlock[:0], wk.scanBlock[:0]
	wk.ops = 0
	wk.inserted, wk.deleted, wk.failed, wk.histReads, wk.refused, wk.checkpoint = 0, 0, 0, 0, 0, rawSpan{}
	if w.fullStack {
		now := m.Now()
		for i := range wk.stamps {
			wk.stamps[i] = now
		}
	}
	for done := 0; done < n; {
		blk := min(w.blockOps, n-done)
		t0 := time.Now()
		for idx := done; idx < done+blk; idx++ {
			kind, key, insert := w.mix.decode(g.next(), w.keyRange)
			var stamp uint64
			if w.fullStack {
				if idx%stampEvery == 0 {
					wk.stamps[idx/stampEvery%stampRing] = m.Now()
				}
				stamp = wk.stamps[(idx/stampEvery+1)%stampRing]
				if wk.id == 0 && idx == n/2 {
					c0 := time.Now()
					if err := m.Checkpoint(); err != nil {
						wk.failed++
					}
					wk.checkpoint = rawSpan{start: c0, end: time.Now()}
				}
				if !in.hist { // EBR-RQ refuses history: the reads are served live
					switch kind {
					case opGetAt:
						kind = opGet
					case opRQAt:
						kind = opRQ
					}
				}
			}
			timed := idx%every == 0
			var s time.Time
			var el time.Duration
			if timed {
				s = time.Now()
			}
			ok, applied := true, true
			switch kind {
			case opUpdate:
				var err error
				if insert {
					applied, err = m.InsertDurable(th, key, key)
					if applied {
						wk.inserted++
					}
				} else {
					applied, err = m.DeleteDurable(th, key)
					if applied {
						wk.deleted++
					}
				}
				el = since(timed, s)
				ok = err == nil
			case opRQ:
				hi := key + w.rqLen - 1
				wk.buf = m.RangeQuery(th, key, hi, wk.buf[:0])
				el = since(timed, s)
				ok = wk.checkRange(wk.buf, key, hi, w.rqLen)
			case opGet:
				if w.fullStack {
					v, found := m.Get(th, key)
					el = since(timed, s)
					ok = !found || v == key
				} else {
					m.Contains(th, key)
					el = since(timed, s)
				}
			case opGetAt:
				v, found, err := m.GetAt(th, key, stamp)
				el = since(timed, s)
				ok = wk.historical(err) && (!found || v == key)
			case opRQAt:
				hi := key + w.rqLen - 1
				var err error
				wk.buf, err = m.RangeQueryAt(th, key, hi, stamp, wk.buf[:0])
				el = since(timed, s)
				ok = wk.historical(err) && wk.checkRange(wk.buf, key, hi, w.rqLen)
			}
			if !ok {
				wk.failed++
			}
			// An update that found its key present (or absent) is a lookup; half
			// of them are, which would put the median latency of all updates
			// on the cliff between the two kinds. Only effective ones count.
			if timed && applied {
				wk.lat[kind] = append(wk.lat[kind], uint32(el))
				if len(wk.opSpans) < cap(wk.opSpans) {
					wk.opSpans = append(wk.opSpans, rawSpan{kind, s, s.Add(el)})
				}
			}
		}
		t1 := time.Now()
		wk.sink += in.ref.refcalls(&wk.refRNG, w.blockLookups)
		t2 := time.Now()
		wk.sink += in.ref.scans(&wk.refRNG, w.blockScans, w.rqLen/2)
		t3 := time.Now()
		wk.ops += blk
		wk.opBlock = append(wk.opBlock, float64(t1.Sub(t0))/float64(blk))
		wk.refBlock = append(wk.refBlock, float64(t2.Sub(t1))/float64(w.blockLookups))
		wk.scanBlock = append(wk.scanBlock, float64(t3.Sub(t2))/float64(w.blockScans))
		if len(wk.refSpans) < cap(wk.refSpans) {
			wk.refSpans = append(wk.refSpans, rawSpan{0, t1, t3})
		}
		done += blk
	}
}

func since(timed bool, s time.Time) time.Duration {
	if timed {
		return time.Since(s)
	}
	return 0
}

// historical counts a historical read; a refused or truncated one fails.
func (wk *worker) historical(err error) bool {
	wk.histReads++
	if err != nil {
		wk.refused++
	}
	return err == nil
}

// checkRange is the output check of a range query: every pair inside
// [lo, hi] with value == key, no more than max pairs, no key twice. The API
// does not promise order (a sharded map answers shard by shard), so an
// unordered answer is checked for duplicates on a sorted copy.
func (wk *worker) checkRange(kvs []tscds.KV, lo, hi, max uint64) bool {
	if uint64(len(kvs)) > max {
		return false
	}
	ordered := true
	for i, kv := range kvs {
		if kv.Key < lo || kv.Key > hi || kv.Val != kv.Key {
			return false
		}
		if i > 0 && kv.Key <= kvs[i-1].Key {
			ordered = false
		}
	}
	if ordered {
		return true
	}
	wk.key = wk.key[:0]
	for _, kv := range kvs {
		wk.key = append(wk.key, kv.Key)
	}
	slices.Sort(wk.key)
	for i := 1; i < len(wk.key); i++ {
		if wk.key[i] == wk.key[i-1] {
			return false
		}
	}
	return true
}

// finish runs the checks that need a quiescent map and measures the heap it
// retains: Len() against the tape's successful inserts and deletes (which
// holds for any linearizable interleaving), and on full-stack WALError, then
// Close, reopen over the same files and a full-scan compare.
func (in *instance) finish(w *workload, o *options) error {
	in.liveKeys = in.m.Len() // drains limbo lists too
	if want := in.prefilled + in.inserted - in.deleted; in.liveKeys != want {
		in.fail("Len() = %d, tape says %d", in.liveKeys, want)
	}
	var scan []tscds.KV
	if w.fullStack {
		scan = fullScan(in.m, in.wk[0].th, w.keyRange)
		if len(scan) != in.liveKeys {
			in.fail("full scan has %d keys, Len() %d", len(scan), in.liveKeys)
		}
		if err := in.m.WALError(); err != nil {
			in.fail("WALError: %v", err)
		}
		sp := o.spans.begin("close "+in.arm.name, o.parent, -1, 0)
		t0 := time.Now()
		if err := in.m.Close(); err != nil {
			return fmt.Errorf("%s: close: %w", in.arm.name, err)
		}
		in.closeMS = float64(time.Since(t0)) / 1e6
		o.spans.end(sp)
	}
	// The heap the map retains is what a GC frees once it is dropped.
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: a sync.Pool keeps its victims for one more cycle
	runtime.ReadMemStats(&ms)
	held := ms.HeapAlloc
	in.m, in.metrics = nil, nil
	for _, wk := range in.wk {
		wk.th = nil
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if held > ms.HeapAlloc {
		in.heapBytes = held - ms.HeapAlloc
	}

	if w.fullStack {
		sp := o.spans.begin("reopen "+in.arm.name, o.parent, -1, 0)
		t0 := time.Now()
		m, _, err := w.open(in.arm, o.source, o.traced, in.fs)
		if err != nil {
			return fmt.Errorf("%s: reopen: %w", in.arm.name, err)
		}
		in.recoveryMS = float64(time.Since(t0)) / 1e6
		o.spans.end(sp)
		th, err := m.RegisterThread()
		if err != nil {
			return errors.Join(err, m.Close())
		}
		if again := fullScan(m, th, w.keyRange); !slices.Equal(scan, again) {
			in.fail("reopened map has %d keys and differs from the %d before Close", len(again), len(scan))
		}
		if err := m.Close(); err != nil {
			return fmt.Errorf("%s: close after reopen: %w", in.arm.name, err)
		}
	}
	return nil
}

// fail counts a failed final check and says which.
func (in *instance) fail(format string, args ...any) {
	in.failed++
	fmt.Printf("CHECK FAILED %s: %s\n", in.arm.name, fmt.Sprintf(format, args...))
}

// fullScan returns every pair of a quiescent map in key order.
func fullScan(m tscds.Map, th *tscds.Thread, keyRange uint64) []tscds.KV {
	kvs := m.RangeQuery(th, 0, keyRange, nil)
	slices.SortFunc(kvs, func(a, b tscds.KV) int { return cmp.Compare(a.Key, b.Key) })
	return kvs
}

// measurement is one workload measured on every arm.
type measurement struct {
	w     *workload
	insts []*instance
}

// measure sets a workload up, runs the warm-up and measured rounds with the
// arms interleaved A-B-C and a GC before each round, and finishes every arm.
func measure(w *workload, o options) (*measurement, error) {
	o.parent = o.spans.begin("workload "+w.name, o.parent, -1, 0)
	defer func() { o.spans.end(o.parent) }()
	keys := prefillKeys(o.seed, w.keyRange)
	insts, err := w.setup(&o, keys, newRefTree(len(keys), o.seed))
	if err != nil {
		return nil, err
	}
	if in := insts[0]; in.actual != in.requested {
		fmt.Printf("WARNING: the %v source was requested but %v serves the timestamps on this host: "+
			"every number below measures the fallback clock, not the hardware timestamp\n", in.requested, in.actual)
	}
	for round := 0; round < o.warmup+o.rounds; round++ {
		if round == o.warmup {
			for _, in := range insts {
				in.base = in.snapshot(false)
			}
		}
		runtime.GC()
		for _, in := range insts {
			in.trial(w, &o, round, round >= o.warmup)
		}
	}
	for _, in := range insts {
		in.end = in.snapshot(true)
		in.scrape()
		if err := in.finish(w, &o); err != nil {
			return nil, err
		}
	}
	return &measurement{w: w, insts: insts}, nil
}
