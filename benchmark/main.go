// Command benchmark is the repository's benchmark: four closed-loop
// workloads on three arms of the public tscds API, twelve end-to-end metrics
// in refcalls, and a traced run that attributes them layer by layer. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"tscds"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: paper-mix, update-heavy, scan-heavy or full-stack")
		seed     = flag.Uint64("seed", 1, "seed of the prefill order and the operation tapes")
		seconds  = flag.Int("seconds", runSeconds, "measured time to aim for; scales the number of rounds, never the trial")
		traced   = flag.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics")
		out      = flag.String("out", "out/results.json", "results file the run is appended to")
		doCmp    = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
		doCheck  = flag.Bool("selfcheck", false, "run the benchmark against itself and write out/selfcheck.txt")
		contract = flag.Bool("contract", false, "print BENCHMARK.json from the metric tables")
	)
	flag.Parse()
	// The WAL committers and the collector share the two vCPUs with the two
	// workers: no pinning.
	runtime.GOMAXPROCS(workers)
	debug.SetGCPercent(100)

	var err error
	switch {
	case *contract:
		err = printContract()
	case *doCmp:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare old.json new.json")
			break
		}
		var worse bool
		if worse, err = compare(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			err = fmt.Errorf("at least one metric is worse by more than its bound")
		}
	case *doCheck:
		err = selfcheck(os.Stdout)
	default:
		err = run(*name, *seed, *seconds, *traced != 0, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run is one invocation of the contract: one workload, untraced (the
// end-to-end metrics) or traced (the per-layer metrics). It prints every
// metric as "name value unit" and, as the last line, the contract's JSON
// object; a wrong answer makes it fail.
func run(name string, seed uint64, seconds int, traced bool, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	rec := runRecord{Workload: w.name, Seed: seed, Traced: traced}
	var defs []metricDef
	var m *measurement
	if traced {
		sp := &spans{}
		defs = perLayer
		rec.Metrics, m, rec.Attempted, rec.Failed, err = tracedRun(w, seed, sp)
		if err != nil {
			return err
		}
		if err := sp.write("out/trace.json"); err != nil {
			return err
		}
	} else {
		rec.Rounds = max(3, (measuredRounds*seconds+runSeconds/2)/runSeconds)
		m, err = measure(w, options{
			seed: seed, source: tscds.TSC,
			warmup: 1, rounds: rec.Rounds, minBuilds: 6, setupBudget: 2 * time.Second,
		})
		if err != nil {
			return err
		}
		defs = endToEnd
		rec.Metrics = m.endToEndMetrics()
		rec.Attempted, rec.Failed = m.counts()
	}
	m.describe()
	rec.RefcallNS, rec.RefscanNS = m.refcallNS()
	rec.Fingerprint = newFingerprint(m.insts[0].requested, m.insts[0].actual)
	if err := rec.Metrics.print(defs); err != nil {
		return err
	}
	rec.Correct = rec.Failed == 0
	if err := appendResult(out, rec); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%d of %d operations failed their output check", rec.Failed, rec.Attempted)
	}
	return nil
}
