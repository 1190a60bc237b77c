package sim

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// FormatPanel renders a panel as an aligned text table (threads down,
// series across, Mops/s cells, ± the CV of a measured series). A column is
// 16 characters wide, or as wide as its series name or widest cell.
func FormatPanel(p Panel) string {
	cells := make([][]string, len(p.Series))
	widths := make([]int, len(p.Series))
	for j, s := range p.Series {
		widths[j] = max(16, utf8.RuneCountInString(s.Name))
		for i := range p.Threads {
			cell := fmt.Sprintf("%.2f", s.Mops[i])
			if s.CV != nil {
				cell += fmt.Sprintf(" ±%4.1f%%", s.CV[i])
			}
			cells[j] = append(cells[j], cell)
			widths[j] = max(widths[j], utf8.RuneCountInString(cell))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s  (workload %s)\n", p.ID, p.Workload)
	fmt.Fprintf(&b, "%8s", "threads")
	for j, s := range p.Series {
		fmt.Fprintf(&b, " %*s", widths[j], s.Name)
	}
	b.WriteString("\n")
	for i, t := range p.Threads {
		fmt.Fprintf(&b, "%8d", t)
		for j := range p.Series {
			fmt.Fprintf(&b, " %*s", widths[j], cells[j][i])
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
