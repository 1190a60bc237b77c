package main

import (
	"encoding/json"
	"fmt"
	"slices"
)

// metricDef declares one metric of BENCHMARK.json. The tables below are the
// one place names, units, directions and bounds are written down: the
// contract file is printed from them (-contract) and the smoke test holds
// the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perArm expands "name.<arm>" into one definition per arm.
func perArm(name, unit, better string, bound float64) []metricDef {
	var defs []metricDef
	for _, a := range arms {
		defs = append(defs, metricDef{name + "." + a.name, unit, better, bound})
	}
	return defs
}

// endToEnd is the same twelve metrics on every workload. A bound is how far
// the median may worsen before a change is a regression. Each is three times
// the widest run-to-run spread (quartile distance over median of ten runs)
// the metric showed on any workload on the build host, rounded to 0.05 and
// capped at the contract's 0.25; README.md has the spreads.
var endToEnd = slices.Concat(
	[]metricDef{{"setup_s", "s", "lower", 0.25}},
	perArm("mops_rel", "x", "higher", 0.25),
	perArm("update_p50_rel", "refcalls", "lower", 0.25),
	perArm("rq_p50_rel", "refcalls", "lower", 0.20),
	[]metricDef{
		{"allocs_per_op", "1/op", "lower", 0.03},
		{"heap_bytes_per_key", "B/key", "lower", 0.10},
	},
)

// metricSet collects measured values by name.
type metricSet map[string]value

func (ms metricSet) put(name string, v float64, unit string) { ms[name] = value{v, unit} }

// print writes every metric as "name value unit", in the order of defs, and
// reports a metric that is declared but was not measured.
func (ms metricSet) print(defs []metricDef) error {
	for _, d := range defs {
		v, ok := ms[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if v.Unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, v.Unit, d.Unit)
		}
		fmt.Printf("%-44s %14.6g %s\n", d.Name, v.Value, v.Unit)
	}
	if len(ms) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(ms), len(defs))
	}
	return nil
}

// endToEndMetrics computes the twelve end-to-end metrics of a measurement.
// A metric is the median over measured trials; a latency is the median over
// all timed operations of the measured trials.
func (m *measurement) endToEndMetrics() metricSet {
	ms := metricSet{}
	var setup, allocs, heap float64
	for _, in := range m.insts {
		setup += lowerQuartile(in.builds[1:]) * m.w.refcallNS / 1e9
		var mallocs uint64
		var ops int
		for _, t := range in.trials {
			mallocs += t.mallocs
			ops += t.ops
		}
		ms.put("mops_rel."+in.arm.name, median(in.rels()), "x")
		ms.put("update_p50_rel."+in.arm.name, median(in.lat[opUpdate]), "refcalls")
		ms.put("rq_p50_rel."+in.arm.name, median(in.lat[opRQ]), "refcalls")
		allocs += float64(mallocs) / float64(ops)
		heap += float64(in.heapBytes) / float64(in.liveKeys)
	}
	ms.put("setup_s", setup, "s")
	ms.put("allocs_per_op", allocs, "1/op")
	ms.put("heap_bytes_per_key", heap, "B/key")
	return ms
}

// rels is mops_rel of every measured trial.
func (in *instance) rels() []float64 {
	var rel []float64
	for _, t := range in.trials {
		rel = append(rel, t.mopsRel())
	}
	return rel
}

// refcallNS is the median cost of a reference lookup and of a reference
// scan over every measured trial.
func (m *measurement) refcallNS() (lookup, scan float64) {
	var ref, scans []float64
	for _, in := range m.insts {
		for _, t := range in.trials {
			ref = append(ref, t.refNS)
			scans = append(scans, t.scanNS)
		}
	}
	return median(ref), median(scans)
}

// counts sums operations attempted and failed over the arms.
func (m *measurement) counts() (attempted, failed int) {
	for _, in := range m.insts {
		attempted += in.attempted
		failed += in.failed
	}
	return attempted, failed
}

// describe prints what the metrics were computed from, one line per arm.
func (m *measurement) describe() {
	for _, in := range m.insts {
		var wall, op, ref, scan []float64
		for _, t := range in.trials {
			wall = append(wall, t.wallS)
			op = append(op, t.opNS)
			ref = append(ref, t.refNS)
			scan = append(scan, t.scanNS)
		}
		fmt.Printf("# %-16s source %v->%v builds %d heap_after_prefill %.2f MB trial %.3f s op %.1f ns refcall %.1f ns refscan %.1f ns trial_cov %.4f samples u/rq/c/getat/rqat %d/%d/%d/%d/%d\n",
			in.arm.name, in.requested, in.actual, len(in.builds), float64(in.heapAfterPrefill)/(1<<20),
			median(wall), median(op), median(ref), median(scan), cov(in.rels()),
			len(in.lat[opUpdate]), len(in.lat[opRQ]), len(in.lat[opGet]), len(in.lat[opGetAt]), len(in.lat[opRQAt]))
	}
}

// names expands prefix + each suffix into definitions.
func names(unit, better, prefix string, suffixes ...string) []metricDef {
	var defs []metricDef
	for _, s := range suffixes {
		defs = append(defs, metricDef{Name: prefix + s, Unit: unit, Better: better})
	}
	return defs
}

// perLayer is the 115 metrics of single layers the traced run prints. They
// have no bound. README.md says which end-to-end metric each should move.
var perLayer = slices.Concat(
	// Every workload (23).
	names("ns", "lower", "", "refcall_ns", "refscan_ns", "timer_ns"),
	perArm("mops", "Mops/s", "higher", 0),
	perArm("contains_p50_rel", "refcalls", "lower", 0),
	perArm("update_ptail_rel", "refcalls", "lower", 0),
	perArm("rq_ptail_rel", "refcalls", "lower", 0),
	perArm("trial_cov", "ratio", "lower", 0),
	names("ms", "lower", "", "gc_pause_ms"),
	names("count", "lower", "", "gc_cycles"),
	perArm("trace_overhead_share", "ratio", "lower", 0),
	// Technique, from the program's Config.Metrics and Config.Trace (25).
	perArm("phase_share.traverse", "ratio", "lower", 0),
	perArm("phase_share.timestamp-read", "ratio", "lower", 0),
	perArm("phase_share.label", "ratio", "lower", 0),
	perArm("phase_share.alloc", "ratio", "lower", 0),
	perArm("retry_per_update", "1/op", "lower", 0),
	perArm("core.advances_per_op", "1/op", "lower", 0),
	names("1/op", "lower", "", "vcas.version_walk_per_rq", "vcas.help_per_update",
		"bundle.deref_per_rq", "bundle.pending_wait_per_rq"),
	names("ratio", "lower", "ebrrq.", "lock_wait_share", "limbo_scan_share"),
	names("count", "lower", "", "epoch.limbo_len"),
	// core and tsc, timed directly (10).
	names("ns", "lower", "core.advance_ns.", "logical.t1", "logical.t2", "tsc.t1", "tsc.t2", "adaptive.t1"),
	names("ns", "lower", "core.peek_ns.", "logical", "tsc"),
	perArm("tsc_gain", "x", "higher", 0),
	// Bare structures, one worker (9).
	names("ns", "lower", "lfbst.", "contains_ns", "update_ns", "rq_ns_per_key"),
	names("ns", "lower", "skiplist.", "contains_ns", "update_ns", "rq_ns_per_key"),
	names("ns", "lower", "citrus.", "contains_ns", "update_ns", "rq_ns_per_key"),
	// The ladder, one worker (30).
	ladderDefs(),
	// Full-stack layers (18).
	names("1/op", "higher", "", "wal.records_per_fsync"),
	names("B/op", "lower", "", "wal.bytes_per_update"),
	names("ns", "lower", "", "wal.append_p50_ns"),
	names("ms", "lower", "durable.", "checkpoint_ms", "close_ms", "recovery_ms"),
	perArm("pool.hit_rate", "ratio", "higher", 0),
	perArm("sharded.fanout_share", "ratio", "lower", 0),
	names("refcalls", "lower", "timetravel.getat_p50_rel.", "bst-vcas", "skiplist-bundle"),
	names("refcalls", "lower", "timetravel.rqat_p50_rel.", "bst-vcas", "skiplist-bundle"),
	names("ratio", "lower", "", "timetravel.truncated_share"),
	names("ms", "lower", "", "obs.prom_scrape_ms"),
)

func ladderDefs() []metricDef {
	var defs []metricDef
	for _, r := range rungs {
		defs = append(defs, perArm("ladder_ns."+r, "ns", "lower", 0)...)
	}
	return defs
}

// printContract writes BENCHMARK.json from the tables above.
func printContract() error {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []workloadDef
	for _, w := range workloads {
		ws = append(ws, workloadDef{w.name, w.why})
	}
	data, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}
