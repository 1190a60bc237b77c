package sim

import (
	"fmt"
	"strings"
)

// FormatPanel renders a panel as an aligned text table (threads down,
// series across, Mops/s cells).
func FormatPanel(p Panel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s  (workload %s)\n", p.ID, p.Workload)
	fmt.Fprintf(&b, "%8s", "threads")
	for _, s := range p.Series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	b.WriteString("\n")
	for i, t := range p.Threads {
		fmt.Fprintf(&b, "%8d", t)
		for _, s := range p.Series {
			fmt.Fprintf(&b, " %16.2f", s.Mops[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// PanelSummary reports the speedup of each "-RDTSCP" series over its
// logical twin (in Figure 1, of RDTSCP over Logical) at the highest thread
// count — the number the paper quotes per figure.
func PanelSummary(p Panel) string {
	var b strings.Builder
	last := len(p.Threads) - 1
	byName := map[string][]float64{}
	for _, s := range p.Series {
		byName[s.Name] = s.Mops
	}
	for _, s := range p.Series {
		twin, paired := strings.CutSuffix(s.Name, "-RDTSCP")
		if s.Name == "RDTSCP" {
			twin, paired = "Logical", true
		}
		base, ok := byName[twin]
		if !paired || !ok {
			continue
		}
		fmt.Fprintf(&b, "  %s %s: %.2fx at %d threads\n",
			p.ID, s.Name, s.Mops[last]/base[last], p.Threads[last])
	}
	return b.String()
}
