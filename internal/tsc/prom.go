package tsc

import (
	"fmt"
	"io"
)

// WriteProm renders the health monitor in Prometheus text exposition
// format 0.0.4. It structurally satisfies obs.PromVar (this package
// deliberately does not import obs), so a Health registered on
// obs.Serve appears in /metrics.prom alongside the registry families.
// Nil-safe (writes nothing).
func (h *Health) WriteProm(w io.Writer) {
	if h == nil {
		return
	}
	s := h.Snapshot()

	head := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	head("tscds_tsc_info", "TSC health state (value is always 1; the state label carries healthy/degraded/fallback).", "gauge")
	fmt.Fprintf(w, "tscds_tsc_info{state=%q,supported=%q,invariant=%q} 1\n",
		s.State, fmt.Sprintf("%t", s.Supported), fmt.Sprintf("%t", s.Invariant))

	head("tscds_tsc_samples_total", "Cross-thread monotonicity samples taken.", "counter")
	fmt.Fprintf(w, "tscds_tsc_samples_total %d\n", s.Samples)

	head("tscds_tsc_cross_regressions_total", "Cross-thread timestamp regressions observed (includes injected faults).", "counter")
	fmt.Fprintf(w, "tscds_tsc_cross_regressions_total %d\n", s.CrossRegressions)

	var selfBack uint64
	for _, t := range s.Threads {
		selfBack += t.SelfBack
	}
	head("tscds_tsc_self_regressions_total", "Same-thread timestamp regressions observed.", "counter")
	fmt.Fprintf(w, "tscds_tsc_self_regressions_total %d\n", selfBack)

	head("tscds_tsc_max_backstep_ns", "Largest observed backstep in nanoseconds.", "gauge")
	fmt.Fprintf(w, "tscds_tsc_max_backstep_ns %g\n", s.MaxBackstepNS)

	head("tscds_tsc_injected_faults_total", "Backsteps injected through the fault hook (testing).", "counter")
	fmt.Fprintf(w, "tscds_tsc_injected_faults_total %d\n", s.InjectedFaults)

	head("tscds_tsc_source_switches_total", "Adaptive-source switches away from hardware.", "counter")
	fmt.Fprintf(w, "tscds_tsc_source_switches_total %d\n", s.SourceSwitches)

	head("tscds_tsc_source_failbacks_total", "Adaptive-source failbacks to hardware.", "counter")
	fmt.Fprintf(w, "tscds_tsc_source_failbacks_total %d\n", s.SourceFailbacks)

	head("tscds_tsc_switch_ns_total", "Cumulative nanoseconds spent executing source switches.", "counter")
	fmt.Fprintf(w, "tscds_tsc_switch_ns_total %d\n", s.SwitchTotalNS)

	head("tscds_tsc_ticks_per_ns", "Calibrated TSC rate (0 when hardware timestamps are unsupported).", "gauge")
	fmt.Fprintf(w, "tscds_tsc_ticks_per_ns %g\n", s.TicksPerNS)
}
