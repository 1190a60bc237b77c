package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync/atomic"

	"tscds"
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
	// pinReported is set once the run's first pinning failure is printed.
	pinReported bool
}

// sources are the two columns of every data-structure figure.
var sources = []tscds.SourceKind{tscds.Logical, tscds.TSC}

// newNative parses the native flags and prints the run's fingerprint: the
// host, the toolchain, and which source actually serves each requested
// one (a host without RDTSCP or an invariant TSC serves RDTSCP from the
// monotonic clock, and numbers labeled RDTSCP would otherwise silently be
// its).
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

// figure measures f on each of mixes (mixes of f's own table) and prints
// a panel per mix, under the simulated panel's ID and series names.
func (n *native) figure(f sim.Figure, mixes []sim.Workload) error {
	if len(f.Arms) == 0 {
		panels, err := n.figure1()
		if err != nil {
			return err
		}
		printPanels(n.w, panels, n.o.format)
		return nil
	}
	for _, mix := range mixes {
		p, err := n.panel(f, mix)
		if err != nil {
			return err
		}
		printPanels(n.w, []sim.Panel{p}, n.o.format)
	}
	return nil
}

// panel measures every arm of f on one mix, on both sources, at each
// thread count: the arm's series, then its -RDTSCP twin.
func (n *native) panel(f sim.Figure, mix sim.Workload) (sim.Panel, error) {
	wl := bench.PaperWorkload(mix.U, mix.RQ, mix.C)
	wl.KeyRange = n.o.keyRange
	if f.KeyRange != 0 {
		wl.KeyRange = f.KeyRange
	}
	p := n.newPanel(f.PanelID(slices.Index(f.Mixes, mix)), wl.Label())
	for _, a := range f.Arms {
		for _, src := range sources {
			name := a.Name
			if src == tscds.TSC {
				name += "-RDTSCP"
			}
			s, err := n.arm(a.Spec, src, name, wl)
			if err != nil {
				return sim.Panel{}, err
			}
			p.Series = append(p.Series, s)
		}
	}
	return p, nil
}

// newPanel starts a native panel; its workload line names the mode, the
// trials and their duration.
func (n *native) newPanel(id, workload string) sim.Panel {
	return sim.Panel{ID: id, Threads: n.threads,
		Workload: fmt.Sprintf("%s; native, %d trials x %v", workload, n.o.trials, n.o.duration)}
}

// arm builds one map, prefills it and runs the workload at each thread
// count into the series name; with -metrics and -trace it prints the arm's
// snapshots after.
func (n *native) arm(spec string, src tscds.SourceKind, name string, wl bench.Workload) (sim.Series, error) {
	s, t, err := bench.ParseArm(spec)
	if err != nil {
		return sim.Series{}, err
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
		return sim.Series{}, err
	}
	n.metrics.Store(cfg.Metrics)
	n.tracer.Store(m.Tracer())
	if err := bench.Prefill(m, wl.KeyRange); err != nil {
		return sim.Series{}, err
	}
	series, err := n.sweep(name, func(opts bench.Options) (bench.Result, error) { return bench.Run(m, wl, opts) })
	if err != nil {
		return sim.Series{}, err
	}
	label := name + " " + wl.Label()
	if cfg.Metrics != nil {
		fmt.Fprintf(n.w, "metrics %s: %s\n", label, cfg.Metrics)
	}
	if tr := m.Tracer(); tr != nil {
		fmt.Fprintf(n.w, "trace %s: %s\n", label, tr)
	}
	return series, nil
}

// figure1 measures timestamp acquisition with each of Figure 1's reads,
// bare (the paper's top panel) and with interleaved local work (bottom).
func (n *native) figure1() ([]sim.Panel, error) {
	var panels []sim.Panel
	for _, panel := range []struct {
		id, workload string
		work         bool
	}{{"1-top", "timestamp acquisition", false}, {"1-bottom", "acquisition + local work", true}} {
		p := n.newPanel(panel.id, panel.workload)
		for _, r := range bench.Fig1Reads {
			s, err := n.sweep(r.Name, func(opts bench.Options) (bench.Result, error) { return bench.RunRead(r.Read, panel.work, opts), nil })
			if err != nil {
				return nil, err
			}
			p.Series = append(p.Series, s)
		}
		panels = append(panels, p)
	}
	return panels, nil
}

// sweep runs measure at each thread count into the series name: a mean
// and a CV per count. It prints the run's first pinning failure once.
func (n *native) sweep(name string, measure func(bench.Options) (bench.Result, error)) (sim.Series, error) {
	s := sim.Series{Name: name}
	opts := bench.Options{Duration: n.o.duration, Trials: n.o.trials, Seed: 7}
	if n.health != nil {
		opts.Sample = n.health.Sample
	}
	for _, threads := range n.threads {
		opts.Threads = threads
		res, err := measure(opts)
		if err != nil {
			return sim.Series{}, err
		}
		if res.PinErr != nil && !n.pinReported {
			n.pinReported = true
			fmt.Fprintf(n.w, "host: pinning failed, workers ran unpinned: %v\n", res.PinErr)
		}
		s.Mops = append(s.Mops, res.Mean)
		s.CV = append(s.CV, res.CV)
	}
	return s, nil
}
