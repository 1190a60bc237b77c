package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"tscds"
)

// The traced run. It never feeds an end-to-end number. Every traced run
// prints all per-layer metrics, because the contract wants every one on
// every workload: the sections tied to -workload (common, technique) run
// its tape; the others run the tape their definition names whichever
// workload was asked for, so they read the same on all four.

// tracedRun measures every per-layer metric for workload w. It also returns
// the untraced measurement of w it made, for the fingerprint.
func tracedRun(w *workload, seed uint64, sp *spans) (metricSet, *measurement, int, int, error) {
	ms := metricSet{}
	root := sp.begin("run", -1, -1, 0)
	defer func() { // the run span carries every metric printed
		var kv []any
		for name, v := range ms {
			kv = append(kv, name, v.Value)
		}
		sp.end(root, kv...)
	}()
	var attempted, failed int
	count := func(m *measurement) {
		a, f := m.counts()
		attempted, failed = attempted+a, failed+f
	}

	// The workload's own tape: untraced trials, then the same tapes with
	// every operation timed and Config.Metrics and Config.Trace on. The
	// difference between the two is the tracing overhead.
	short := options{seed: seed, source: tscds.TSC, warmup: 1, rounds: 2, minBuilds: 2}
	plain, err := measure(w, short)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	on := short
	on.traced, on.spans, on.parent = true, sp, root
	traced, err := measure(w, on)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	count(plain)
	count(traced)
	commonLayers(ms, plain, traced)
	techniqueLayers(ms, traced)

	// The full-stack layers: the traced full-stack trials themselves, or
	// half-length ones when another workload was asked for.
	stack := traced
	if !w.fullStack {
		half := *theWorkload("full-stack")
		half.trialOps /= 2
		if stack, err = measure(&half, on); err != nil {
			return nil, nil, 0, 0, err
		}
		count(stack)
	}
	fullStackLayers(ms, stack)

	coreLayers(ms, sp, root)
	if err := tscGain(ms, seed, count); err != nil {
		return nil, nil, 0, 0, err
	}
	if err := bareLayers(ms, seed, sp, root); err != nil {
		return nil, nil, 0, 0, err
	}
	if err := ladder(ms, seed, sp, root); err != nil {
		return nil, nil, 0, 0, err
	}

	return ms, plain, attempted, failed, nil
}

// commonLayers are the 23 metrics every workload has. The latencies come
// from the untraced trials, like the end-to-end ones.
func commonLayers(ms metricSet, plain, traced *measurement) {
	var pauseNS uint64
	var cycles uint32
	for i, in := range plain.insts {
		var mops []float64
		for _, t := range in.trials {
			mops = append(mops, t.mops())
			pauseNS += t.gcPauseNS
			cycles += t.gcCycles
		}
		rel, relTraced := in.rels(), traced.insts[i].rels()
		name := "." + in.arm.name
		ms.put("mops"+name, median(mops), "Mops/s")
		ms.put("trial_cov"+name, cov(rel), "ratio")
		ms.put("trace_overhead_share"+name, 1-median(relTraced)/median(rel), "ratio")
		ms.put("contains_p50_rel"+name, median(in.lat[opGet]), "refcalls") // 0 where the mix has no Contains
		// Tails stay ungated: on two shared vCPUs preemption, not the
		// program, sets them.
		ut, up := tail(in.lat[opUpdate])
		rt, rp := tail(in.lat[opRQ])
		ms.put("update_ptail_rel"+name, ut, "refcalls")
		ms.put("rq_ptail_rel"+name, rt, "refcalls")
		fmt.Printf("# %-16s update tail is p%.3f of %d samples, rq tail p%.3f of %d\n",
			in.arm.name, up, len(in.lat[opUpdate]), rp, len(in.lat[opRQ]))
	}
	lookup, scan := plain.refcallNS()
	ms.put("refcall_ns", lookup, "ns")
	ms.put("refscan_ns", scan, "ns")
	ms.put("gc_pause_ms", float64(pauseNS)/1e6, "ms")
	ms.put("gc_cycles", float64(cycles), "count")

	const pairs = 200000
	start := time.Now()
	var sink time.Duration
	for i := 0; i < pairs; i++ {
		sink += time.Since(time.Now())
	}
	ms.put("timer_ns", float64(time.Since(start))/pairs, "ns")
	_ = sink
}

// delta is what the program's own aggregates counted over the measured
// rounds of a traced measurement.
type delta struct{ base, end *snapshot }

func (in *instance) delta() delta { return delta{&in.base, &in.end} }

// phase returns the count and the sum (ns or events) a flight-recorder phase
// gained.
func (d delta) phase(name string) (count, sum float64) {
	for _, p := range d.end.trace.Phases {
		if p.Phase == name {
			count, sum = float64(p.Count), float64(p.Sum)
		}
	}
	for _, p := range d.base.trace.Phases {
		if p.Phase == name {
			count, sum = count-float64(p.Count), sum-float64(p.Sum)
		}
	}
	return count, sum
}

// ops returns the count and the total latency the facade bracketed for one
// op class ("update", "range-query", "contains"), or for all with "".
func (d delta) ops(class string) (count, ns float64) {
	for _, o := range d.end.trace.Ops {
		if class == "" || o.Op == class {
			count, ns = count+float64(o.Count), ns+float64(o.SumNS)
		}
	}
	for _, o := range d.base.trace.Ops {
		if class == "" || o.Op == class {
			count, ns = count-float64(o.Count), ns-float64(o.SumNS)
		}
	}
	return count, ns
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// techniqueLayers are the 25 metrics read from the program's existing
// Config.Metrics and Config.Trace aggregates. A sharded map does not forward
// its recorder to the shards, so on full-stack the structure phases read 0.
func techniqueLayers(ms metricSet, traced *measurement) {
	for _, in := range traced.insts {
		d := in.delta()
		name := "." + in.arm.name
		allOps, allNS := d.ops("")
		updates, _ := d.ops("update")
		rqs, _ := d.ops("range-query")
		for _, p := range [...]string{"traverse", "timestamp-read", "label", "alloc"} {
			_, ns := d.phase(p)
			ms.put("phase_share."+p+name, ratio(ns, allNS), "ratio")
		}
		_, retries := d.phase("retry")
		ms.put("retry_per_update"+name, ratio(retries, updates), "1/op")
		advances := float64(d.end.metrics.Source.Advances - d.base.metrics.Source.Advances)
		ms.put("core.advances_per_op"+name, ratio(advances, allOps), "1/op")
		switch in.arm.technique {
		case tscds.VCAS:
			_, walk := d.phase("version-walk")
			_, help := d.phase("help")
			ms.put("vcas.version_walk_per_rq", ratio(walk, rqs), "1/op")
			ms.put("vcas.help_per_update", ratio(help, updates), "1/op")
		case tscds.Bundle:
			_, deref := d.phase("bundle-deref")
			_, wait := d.phase("pending-wait")
			ms.put("bundle.deref_per_rq", ratio(deref, rqs), "1/op")
			ms.put("bundle.pending_wait_per_rq", ratio(wait, rqs), "1/op")
		case tscds.EBRRQ:
			_, lock := d.phase("lock-wait")
			_, limbo := d.phase("limbo-scan")
			ms.put("ebrrq.lock_wait_share", ratio(lock, allNS), "ratio")
			ms.put("ebrrq.limbo_scan_share", ratio(limbo, allNS), "ratio")
			ms.put("epoch.limbo_len", float64(d.end.metrics.GC.LimboLen), "count")
		}
	}
}

// fullStackLayers are the 18 metrics of the layers that work only in the
// production configuration, from a traced full-stack measurement.
func fullStackLayers(ms metricSet, stack *measurement) {
	var appends, fsyncs, bytes, reads, refused float64
	var appendNS, checkpoint, closeMS, recovery, scrape []float64
	for _, in := range stack.insts {
		d := in.delta()
		name := "." + in.arm.name
		wal, wal0 := d.end.metrics.WAL, d.base.metrics.WAL
		if wal != nil && wal0 != nil {
			appends += float64(wal.Appends - wal0.Appends)
			fsyncs += float64(wal.Fsyncs - wal0.Fsyncs)
		}
		bytes += float64(d.end.fsBytes - d.base.fsBytes)
		for _, e := range d.end.trace.Events {
			if e.Kind == "span" && e.Phase == "wal-append" {
				appendNS = append(appendNS, float64(e.Value))
			}
		}
		checkpoint = append(checkpoint, in.checkpointMS...)
		closeMS = append(closeMS, in.closeMS)
		recovery = append(recovery, in.recoveryMS)
		scrape = append(scrape, in.scrapeMS)
		var hits, misses float64
		if p, p0 := d.end.metrics.Pool, d.base.metrics.Pool; p != nil && p0 != nil {
			hits, misses = float64(p.Hits-p0.Hits), float64(p.Misses-p0.Misses)
		}
		ms.put("pool.hit_rate"+name, ratio(hits, hits+misses), "ratio")
		_, fanout := d.phase("shard-fanout")
		_, allNS := d.ops("")
		ms.put("sharded.fanout_share"+name, ratio(fanout, allNS), "ratio")
		if in.hist {
			ms.put("timetravel.getat_p50_rel"+name, median(in.lat[opGetAt]), "refcalls")
			ms.put("timetravel.rqat_p50_rel"+name, median(in.lat[opRQAt]), "refcalls")
		}
		reads += float64(in.histReads)
		refused += float64(in.refused)
	}
	ms.put("wal.records_per_fsync", ratio(appends, fsyncs), "1/op")
	ms.put("wal.bytes_per_update", ratio(bytes, appends), "B/op")
	ms.put("wal.append_p50_ns", median(appendNS), "ns")
	ms.put("durable.checkpoint_ms", median(checkpoint), "ms")
	ms.put("durable.close_ms", median(closeMS), "ms")
	ms.put("durable.recovery_ms", median(recovery), "ms")
	ms.put("timetravel.truncated_share", ratio(refused, reads), "ratio")
	ms.put("obs.prom_scrape_ms", median(scrape), "ms")
}

// scrape times one Prometheus exposition of the arm's registry.
func (in *instance) scrape() {
	if in.metrics == nil {
		return
	}
	start := time.Now()
	in.metrics.WriteProm(io.Discard)
	in.scrapeMS = float64(time.Since(start)) / 1e6
}

// coreLayers times the timestamp sources directly through
// tscds.NewTimestampSource: an Advance on one and on two threads, a Peek.
func coreLayers(ms metricSet, sp *spans, parent int) {
	calls := 4 * theWorkload("update-heavy").trialOps
	time1 := func(name string, kind tscds.SourceKind, threads int, peek bool) {
		id := sp.begin(name, parent, -1, 0)
		src := tscds.NewTimestampSource(kind)
		var wg sync.WaitGroup
		start := time.Now()
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sink uint64
				for i := 0; i < calls; i++ {
					if peek {
						sink += src.Peek()
					} else {
						sink += src.Advance()
					}
				}
				_ = sink
			}()
		}
		wg.Wait()
		ns := float64(time.Since(start)) / float64(calls) // per call, per thread
		ms.put(name, ns, "ns")
		sp.end(id, "ns_per_call", ns)
	}
	time1("core.advance_ns.logical.t1", tscds.Logical, 1, false)
	time1("core.advance_ns.logical.t2", tscds.Logical, 2, false)
	time1("core.advance_ns.tsc.t1", tscds.TSC, 1, false)
	time1("core.advance_ns.tsc.t2", tscds.TSC, 2, false)
	time1("core.advance_ns.adaptive.t1", tscds.Adaptive, 1, false)
	time1("core.peek_ns.logical", tscds.Logical, 1, true)
	time1("core.peek_ns.tsc", tscds.TSC, 1, true)
}

// tscGain is the paper's headline ratio: update-heavy mops_rel with the TSC
// source over the same with the Logical source, on quarter-length trials.
func tscGain(ms metricSet, seed uint64, count func(*measurement)) error {
	quarter := *theWorkload("update-heavy")
	quarter.trialOps /= 4
	rel := func(src tscds.SourceKind) ([]float64, error) {
		m, err := measure(&quarter, options{seed: seed, source: src, warmup: 1, rounds: 3, minBuilds: 1})
		if err != nil {
			return nil, err
		}
		count(m)
		out := make([]float64, len(arms))
		for i, in := range m.insts {
			out[i] = median(in.rels())
		}
		return out, nil
	}
	tsc, err := rel(tscds.TSC)
	if err != nil {
		return err
	}
	logical, err := rel(tscds.Logical)
	if err != nil {
		return err
	}
	for i, a := range arms {
		ms.put("tsc_gain."+a.name, ratio(tsc[i], logical[i]), "x")
	}
	return nil
}
