package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tscds"
	"tscds/internal/affinity"
	"tscds/internal/bench"
	"tscds/internal/core"
	"tscds/internal/obs"
	"tscds/internal/sim"
	"tscds/internal/tsc"
)

// native measures figures on this host. It owns what outlives any one arm:
// the -serve endpoint and the TSC health monitor; the endpoint reads the
// arm now running through metrics/tracer.
type native struct {
	w       io.Writer
	o       *options
	threads []int
	health  *tsc.Health // with -trace or -serve
	metrics atomic.Pointer[tscds.Metrics]
	tracer  atomic.Pointer[tscds.Tracer]
	stop    func() // shuts the -serve endpoint down
}

// sources are the two columns of every data-structure figure.
var sources = []tscds.SourceKind{tscds.Logical, tscds.TSC}

// fig1Kinds are Figure 1's series, in the simulated panels' order.
var fig1Kinds = []core.Kind{core.Logical, core.TSC, core.TSCCPUID, core.TSCUnfenced, core.TSCRaw}

// newNative parses the native flags and prints the run's fingerprint: the
// host, the toolchain, and which source actually serves each requested
// one (a host without an invariant TSC serves RDTSCP from the monotonic
// clock, and numbers labeled RDTSCP would otherwise silently be its).
func newNative(w io.Writer, o *options) (*native, error) {
	threads, err := bench.ParseThreads(o.threads)
	if err != nil {
		return nil, err
	}
	n := &native{w: w, o: o, threads: threads, stop: func() {}}
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s %s/%s; sources requested → actual:",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, k := range sources {
		fmt.Fprintf(w, " %v → %v;", k, core.Actual(core.New(k)))
	}
	fmt.Fprintln(w)
	if most := threads[len(threads)-1]; most > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "warning: -threads asks for %d workers on %d CPUs: rows past %d measure time-slicing, not parallel contention\n",
			most, runtime.NumCPU(), runtime.NumCPU())
	}
	if o.trace || o.serve != "" {
		n.health = tsc.NewHealth(512)
	}
	if o.serve != "" {
		if err := n.serve(o.serve); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// serve starts the live endpoint.
func (n *native) serve(addr string) error {
	srv, err := obs.Serve(addr, map[string]obs.Var{
		"metrics":   obs.Live(func() obs.Var { return n.metrics.Load() }),
		"trace":     obs.Live(func() obs.Var { return n.tracer.Load() }),
		"tschealth": n.health,
	})
	if err != nil {
		return err
	}
	n.stop = func() { srv.Close() }
	fmt.Fprintf(n.w, "serving stats on http://%s/metrics\n", srv.Addr())
	return nil
}

// close prints the health monitor's verdict and stops the endpoint.
func (n *native) close() {
	if n.o.trace {
		fmt.Fprintf(n.w, "tschealth %s\n", n.health)
	}
	n.stop()
}

// figure measures every arm on every mix of f, on both sources, at each
// thread count, and prints one table per mix.
func (n *native) figure(f sim.Figure) error {
	if len(f.Arms) == 0 {
		n.figure1()
		return nil
	}
	for _, mix := range f.Mixes {
		wl := bench.PaperWorkload(mix.U, mix.RQ, mix.C)
		wl.KeyRange = n.o.keyRange
		if f.KeyRange != 0 {
			wl.KeyRange = f.KeyRange
		}
		results := map[string][]bench.Result{}
		for _, a := range f.Arms {
			for _, src := range sources {
				name := a.Name
				if src == tscds.TSC {
					name += "-RDTSCP"
				}
				res, err := n.arm(a.Spec, src, name+" "+wl.Label(), wl)
				if err != nil {
					return err
				}
				results[name] = res
			}
		}
		fmt.Fprintln(n.w, bench.Table(
			fmt.Sprintf("Figure %s, workload %s, native (%d trials x %v)", f.ID, wl.Label(), n.o.trials, n.o.duration),
			n.threads, results))
	}
	return nil
}

// arm builds one map, prefills it and runs the workload at each thread
// count; with -metrics and -trace it prints the arm's snapshots after.
func (n *native) arm(spec string, src tscds.SourceKind, label string, wl bench.Workload) ([]bench.Result, error) {
	s, t, err := bench.ParseArm(spec)
	if err != nil {
		return nil, err
	}
	cfg := tscds.Config{Source: src, MaxThreads: 512}
	if n.o.metrics {
		cfg.Metrics = tscds.NewMetrics()
	}
	if n.o.trace {
		cfg.Trace = &tscds.TraceConfig{}
	}
	m, err := tscds.New(s, t, cfg)
	if err != nil {
		return nil, err
	}
	n.metrics.Store(cfg.Metrics)
	n.tracer.Store(m.Tracer())
	if err := bench.Prefill(m, m, wl.KeyRange); err != nil {
		return nil, err
	}
	opts := bench.Options{Duration: n.o.duration, Trials: n.o.trials, Pin: true, Seed: 7}
	if n.health != nil {
		opts.Sample = n.health.Sample
	}
	var out []bench.Result
	for _, threads := range n.threads {
		opts.Threads = threads
		res, err := bench.Run(m, m, wl, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	if cfg.Metrics != nil {
		fmt.Fprintf(n.w, "metrics %s: %s\n", label, cfg.Metrics)
	}
	if tr := m.Tracer(); tr != nil {
		fmt.Fprintf(n.w, "trace %s: %s\n", label, tr)
	}
	return out, nil
}

// figure1 measures timestamp acquisition from each source, bare (the
// paper's top panel) and with interleaved local work (bottom).
func (n *native) figure1() {
	for _, panel := range []struct {
		name string
		work bool
	}{{"top: bare acquisition", false}, {"bottom: acquisition + local work", true}} {
		fmt.Fprintf(n.w, "Figure 1 (%s), native, %v/point\n%8s", panel.name, n.o.duration, "threads")
		for _, k := range fig1Kinds {
			fmt.Fprintf(n.w, " %16s", k)
		}
		fmt.Fprintln(n.w)
		for _, threads := range n.threads {
			fmt.Fprintf(n.w, "%8d", threads)
			for _, k := range fig1Kinds {
				fmt.Fprintf(n.w, " %11.2f Mops", acquire(core.New(k), threads, n.o.duration, panel.work))
			}
			fmt.Fprintln(n.w)
		}
		fmt.Fprintln(n.w)
	}
}

// acquire is Figure 1's loop: threads pinned workers advance src for d,
// optionally doing 100 multiply-adds of local work per acquisition, and
// the total rate comes back in Mops/s.
func acquire(src core.Source, threads int, d time.Duration, work bool) float64 {
	var stop core.PaddedBool
	counts := make([]struct {
		n int64
		_ [56]byte
	}, threads)
	pinner := affinity.NewPinner()
	var ready, start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < threads; i++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			defer pinner.Pin(i)()
			ready.Done()
			start.Wait()
			sink := uint64(0)
			for !stop.Load() {
				sink += src.Advance()
				if work {
					for j := 0; j < 100; j++ {
						sink = sink*2862933555777941757 + 3037000493
					}
				}
				counts[i].n++
			}
			_ = sink
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
	for i := range counts {
		total += counts[i].n
	}
	return float64(total) / elapsed / 1e6
}
