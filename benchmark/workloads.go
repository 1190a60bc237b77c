package main

import (
	"fmt"

	"tscds"
)

// arm is one (structure, technique) pair; every workload runs all three.
// They follow the paper's three building blocks, one structure each.
type arm struct {
	name      string
	structure tscds.Structure
	technique tscds.Technique
	bare      string // internal package timed by the bare-structure metrics
}

var arms = [...]arm{
	{"bst-vcas", tscds.BST, tscds.VCAS, "lfbst"},
	{"skiplist-bundle", tscds.SkipList, tscds.Bundle, "skiplist"},
	{"citrus-ebrrq", tscds.Citrus, tscds.EBRRQ, "citrus"},
}

const (
	workers = 2 // closed-loop worker goroutines; nproc on the build host is 2

	// runSeconds is BENCHMARK.json's run_seconds: with -seconds runSeconds a
	// run makes measuredRounds measured rounds, which take about that long on
	// the build host. Another -seconds scales the rounds, never the trial.
	runSeconds     = 22
	measuredRounds = 12

	// Full-stack configuration.
	fullStackShards = 4
	syncEvery       = 64
	stampEvery      = 64 // a worker captures Now() every stampEvery of its ops
	stampRing       = 9  // and reads at the oldest of stampRing stamps: 512-575 ops old
	// retentionTicks is about 0.5 s of the build host's 2.1 GHz TSC: a thousand
	// times the age of the stamps read, so no historical read is truncated,
	// and shorter than the pause between two trials of one arm, so the
	// history a trial leaves is its own.
	retentionTicks = 1 << 30
)

// workload is one set of inputs. trialOps and sampleEvery are frozen here:
// a trial is a fixed number of operations, not a fixed time, so the work,
// the allocation counts and the chain lengths are the same on every commit.
type workload struct {
	name, why   string
	keyRange    uint64 // uniform keys; half are prefilled in seeded shuffled order
	rqLen       uint64
	mix         mix
	fullStack   bool
	trialOps    int // map operations per arm per trial, both workers together
	sampleEvery int // every sampleEvery-th operation is timed
	// A worker alternates blocks of blockOps map operations (1-5 ms) with
	// reference blocks of blockLookups lookups and blockScans scans (a tenth
	// to a third of that).
	blockOps, blockLookups, blockScans int
	// refcallNS is the nominal cost of a reference lookup on the build host. setup_s
	// must be in seconds, and raw seconds move 20-30 % there, so a build is
	// timed in refcalls and converted at this frozen rate.
	refcallNS float64
}

var workloads = []workload{
	{
		name:     "paper-mix",
		why:      "paper's U-RQ-C 10-10-80 mix on 131,072 keys (6x L2): traversal does most of the work, source/label/alloc little",
		keyRange: 131072, rqLen: 100, mix: mix{10, 10, 80, 0, 0},
		trialOps: 10 << 15, sampleEvery: 8, blockOps: 1024, blockLookups: 512, blockScans: 64, refcallNS: 480,
	},
	{
		name:     "update-heavy",
		why:      "90-10-0 on 8,192 keys (L2-resident): traversal is cheap, so source advance, labeling, allocation and reclamation do most of the work",
		keyRange: 8192, rqLen: 100, mix: mix{90, 10, 0, 0, 0},
		trialOps: 4 << 16, sampleEvery: 4, blockOps: 1024, blockLookups: 2048, blockScans: 128, refcallNS: 125,
	},
	{
		name:     "scan-heavy",
		why:      "10-80-10 with 1,000-key range queries on 131,072 keys: range collection does most of the work, beside 10 % updates that would pay for a scan gain",
		keyRange: 131072, rqLen: 1000, mix: mix{10, 80, 10, 0, 0},
		trialOps: 7 << 11, sampleEvery: 1, blockOps: 32, blockLookups: 256, blockScans: 16, refcallNS: 480,
	},
	{
		name:     "full-stack",
		why:      "production configuration (4 shards, metrics, trace, pool, retention, WAL on an in-memory FS) with historical reads: sharding, time travel, durability, pool and obs work only here",
		keyRange: 16384, rqLen: 100, mix: mix{30, 10, 50, 8, 2}, fullStack: true,
		trialOps: 5 << 15, sampleEvery: 4, blockOps: 256, blockLookups: 512, blockScans: 64, refcallNS: 190,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// theWorkload is findWorkload for the names the benchmark itself uses; a
// missing one is a bug in the table above.
func theWorkload(name string) *workload {
	w, err := findWorkload(name)
	if err != nil {
		panic(err)
	}
	return w
}

// miniature shrinks a workload to a 2,000-operation trial for the smoke test.
func (w workload) miniature() workload {
	w.keyRange /= 16
	w.trialOps = 2000
	w.sampleEvery = 1
	return w
}

// open builds one arm's map for this workload. instrumented turns on
// Config.Metrics and Config.Trace for the traced run; the full-stack
// workload has both on always, as production would.
func (w *workload) open(a *arm, src tscds.SourceKind, instrumented bool, fs *memFS) (tscds.DurableMap, *tscds.Metrics, error) {
	cfg := tscds.Config{Source: src}
	if instrumented || w.fullStack {
		cfg.Metrics = tscds.NewMetrics()
		cfg.Trace = &tscds.TraceConfig{}
	}
	if !w.fullStack {
		m, err := tscds.New(a.structure, a.technique, cfg)
		if err != nil {
			return nil, nil, err
		}
		return m.(tscds.DurableMap), cfg.Metrics, nil
	}
	cfg.Alloc = tscds.AllocPool
	cfg.Retention = retentionTicks
	cfg.Durability = &tscds.Durability{Dir: "wal", SyncEvery: syncEvery, FS: fs}
	m, err := tscds.NewSharded(a.structure, a.technique, fullStackShards, cfg)
	if err != nil {
		return nil, nil, err
	}
	return m, cfg.Metrics, nil
}
