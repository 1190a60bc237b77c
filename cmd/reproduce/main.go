// Command reproduce is the experiment driver: every figure of the paper
// on the simulated paper machine (4x24x2 Xeon) and natively on this host,
// and the simulator's calibration sensitivity.
//
//	reproduce                       every figure: paper claim | sim | native spot check
//	reproduce -skip-native -full    simulation only, every panel (deterministic)
//	reproduce fig 4 -mode sim -format chart
//	reproduce fig 3 -mode native -threads 1,2 -arm citrus/bundle -trace -metrics
//	reproduce sensitivity           headline ratios across the calibration constants
//
// The figures (arms, U-RQ-C mixes, paper claims) are declared once, in
// internal/sim's table. Native runs follow the paper's setup: structures
// prefilled to half of the key range, 100-key range queries, uniform
// keys, pinned workers, mean and coefficient of variation of the trials
// in Mops/s. Both modes print the same panels through one renderer.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tscds/internal/sim"
)

// options holds every flag; each subcommand registers the ones it reads.
type options struct {
	full, skipNative bool
	out              string
	mode, format     string
	arm              string
	threads          string
	duration         time.Duration
	trials           int
	keyRange         uint64
	metrics, trace   bool
	serve            string
}

// nativeFlags registers what a native measurement reads.
func (o *options) nativeFlags(fs *flag.FlagSet, threads string, d time.Duration, trials int, keyRange uint64) {
	fs.StringVar(&o.threads, "threads", threads, "native: comma-separated thread counts (empty = powers of two up to the CPU count)")
	fs.DurationVar(&o.duration, "duration", d, "native: per-trial duration")
	fs.IntVar(&o.trials, "trials", trials, "native: trials per point (Figures 2-5)")
	fs.Uint64Var(&o.keyRange, "keyrange", keyRange, "native: key range of the figures that do not fix their own")
	fs.BoolVar(&o.metrics, "metrics", false, "native: print a metrics snapshot (JSON) per arm")
	fs.BoolVar(&o.trace, "trace", false, "native: record per-phase flight traces, print breakdowns per arm, monitor TSC health")
	fs.StringVar(&o.serve, "serve", "", "native: serve live /metrics(.prom), /trace and /tschealth on this address")
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	var o options
	fs := flag.NewFlagSet("reproduce", flag.ExitOnError)
	cmd := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "":
		fs.BoolVar(&o.full, "full", false, "print every simulated panel of Figures 2 and 3")
		fs.BoolVar(&o.skipNative, "skip-native", false, "skip the native spot checks")
		fs.StringVar(&o.out, "out", "", "also write the report to this file")
		o.nativeFlags(fs, strconv.Itoa(runtime.NumCPU()), 300*time.Millisecond, 2, 100_000)
		fs.Parse(args)
		return report(w, &o)
	case "fig":
		if len(args) == 0 {
			return fmt.Errorf("fig: want a figure: 1, 2, 3, 4, 5 or lazy")
		}
		f, ok := sim.FigureByID(args[0])
		if !ok {
			return fmt.Errorf("fig: unknown figure %q", args[0])
		}
		fs.StringVar(&o.mode, "mode", "native", "native or sim")
		fs.StringVar(&o.format, "format", "table", "output: table, csv or chart")
		fs.StringVar(&o.arm, "arm", "", "native: run the figure's mixes on this structure/technique instead of its own arms")
		o.nativeFlags(fs, "", 500*time.Millisecond, 3, 1_000_000)
		fs.Parse(args[1:])
		return figure(w, f, &o)
	case "sensitivity":
		fs.Parse(args)
		sensitivity(w)
		return nil
	}
	return fmt.Errorf("unknown command %q: want fig or sensitivity", cmd)
}

// quickSweeps is how many (mix, arm) sweeps a figure may hold before the
// full report prints only its first three panels without -full.
const quickSweeps = 6

// report prints, per figure, the paper's claim, the simulated panels and
// a native spot check on the figure's Spot mix.
func report(w io.Writer, o *options) error {
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(w, f)
	}
	var n *native
	if !o.skipNative {
		var err error
		if n, err = newNative(w, o); err != nil {
			return err
		}
		defer n.close()
		fmt.Fprintln(w, "Native spot checks verify that the real implementations run and order")
		fmt.Fprintln(w, "sanely; low core counts mute the contention the paper measures.")
	}
	m := sim.PaperMachine()
	fmt.Fprintf(w, "Simulated paper machine: %d NUMA zones x %d cores x %d SMT\n\n", m.Zones, m.CoresPerZone, m.SMTPerCore)
	for _, f := range sim.Figures {
		fmt.Fprintf(w, "--- %s ---\npaper: %s\n", f.Title, f.Claim)
		shown := f
		if !o.full && len(f.Mixes)*len(f.Arms) > quickSweeps {
			fmt.Fprintf(w, "(first 3 of %d panels; rerun with -full)\n", len(f.Mixes))
			shown.Mixes = f.Mixes[:3]
		}
		printPanels(w, sim.Panels(m, shown), "table")
		if n != nil {
			if err := n.figure(f, []sim.Workload{f.Spot}); err != nil {
				return err
			}
		}
	}
	return nil
}

// figure regenerates one figure, simulated or native.
func figure(w io.Writer, f sim.Figure, o *options) error {
	switch o.mode {
	case "sim":
		if o.arm != "" {
			return fmt.Errorf("-arm runs natively only")
		}
		printPanels(w, sim.Panels(sim.PaperMachine(), f), o.format)
		return nil
	case "native":
		if o.arm != "" {
			if len(f.Arms) == 0 {
				return fmt.Errorf("figure 1 measures timestamp sources; it takes no -arm")
			}
			f.Arms = []sim.Arm{{Name: o.arm, Spec: o.arm}}
		}
		n, err := newNative(w, o)
		if err != nil {
			return err
		}
		defer n.close()
		return n.figure(f, f.Mixes)
	}
	return fmt.Errorf("unknown mode %q", o.mode)
}

// printPanels renders simulated and measured panels alike; tables carry
// the speedup of each -RDTSCP series over its logical twin (Figure 1: of
// RDTSCP over Logical) at the highest thread count, as the paper quotes it.
func printPanels(w io.Writer, panels []sim.Panel, format string) {
	for _, p := range panels {
		switch format {
		case "csv":
			fmt.Fprint(w, sim.FormatCSV(p))
		case "chart":
			fmt.Fprintln(w, sim.FormatChart(p, 16))
		default:
			fmt.Fprintln(w, sim.FormatPanel(p))
			if s := sim.PanelSummary(p); s != "" {
				fmt.Fprint(w, s, "\n")
			}
		}
	}
}

// sensitivity sweeps the simulator's calibration constants and prints how
// each headline ratio responds: the paper's qualitative conclusions are
// properties of the contention model, not of one parameter choice.
func sensitivity(w io.Writer) {
	heads := sim.Headlines()
	fmt.Fprintln(w, "Headline ratios at the calibrated machine:")
	base := sim.PaperMachine()
	for _, h := range heads {
		fmt.Fprintf(w, "  %-18s %8.2fx   (paper: %s)\n", h.Name, h.Eval(base), h.Claim)
	}
	fmt.Fprintln(w)
	for _, sw := range sim.Sweeps() {
		fmt.Fprintf(w, "sweep %s:\n  %10s", sw.Name, "value")
		for _, h := range heads {
			fmt.Fprintf(w, " %16s", h.Name)
		}
		fmt.Fprintln(w)
		for _, row := range sim.RunSweep(sw, heads) {
			fmt.Fprintf(w, "  %10.2f", row.Value)
			for _, r := range row.Ratios {
				fmt.Fprintf(w, " %15.2fx", r)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}
