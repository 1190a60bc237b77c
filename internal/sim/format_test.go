package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func samplePanel() Panel {
	return Panel{
		ID:       "9z",
		Workload: "10-10-80",
		Threads:  []int{1, 2, 4},
		Series: []Series{
			{Name: "Logical", Mops: []float64{1, 2, 3}},
			{Name: "Logical-RDTSCP", Mops: []float64{1, 3, 9}},
		},
	}
}

func TestFormatPanel(t *testing.T) {
	out := FormatPanel(samplePanel())
	for _, want := range []string{"Figure 9z", "10-10-80", "threads", "Logical", "9.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("panel missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 5 { // header x2 + 3 rows
		t.Fatalf("panel has %d lines:\n%s", got, out)
	}
	if strings.Contains(out, "±") {
		t.Fatalf("a simulated panel prints a CV:\n%s", out)
	}
	// A measured series carries its trials' CV, printed beside each mean.
	p := samplePanel()
	p.Series[1].CV = []float64{0, 12.5, 4.3}
	out = FormatPanel(p)
	for _, want := range []string{"1.00 ± 0.0%", "3.00 ±12.5%", "9.00 ± 4.3%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("measured panel missing %q:\n%s", want, out)
		}
	}
}

// A series name longer than the default column, as a native -arm run
// prints (structure/technique-RDTSCP), widens its column: the header and
// every row end their columns at the same offsets.
func TestFormatPanelAlignsLongNames(t *testing.T) {
	p := samplePanel()
	p.Series[0].Name = "citrus/vcas"
	p.Series[1].Name = "citrus/vcas-RDTSCP"
	lines := strings.Split(strings.TrimSuffix(FormatPanel(p), "\n"), "\n")[1:]
	ends := func(line string) []int { // rune offsets where a field ends
		var out []int
		r := []rune(line)
		for i := range r {
			if r[i] != ' ' && (i+1 == len(r) || r[i+1] == ' ') {
				out = append(out, i+1)
			}
		}
		return out
	}
	want := ends(lines[0])
	if len(want) != 3 {
		t.Fatalf("header %q has %d fields, want 3", lines[0], len(want))
	}
	for _, l := range lines[1:] {
		if got := ends(l); !slices.Equal(got, want) {
			t.Errorf("row %q ends its columns at %v, the header at %v:\n%s", l, got, want, strings.Join(lines, "\n"))
		}
	}
}

func TestPanelSummary(t *testing.T) {
	out := PanelSummary(samplePanel())
	if !strings.Contains(out, "3.00x") {
		t.Fatalf("summary missing speedup: %q", out)
	}
	// A panel with no -RDTSCP pairs yields nothing.
	p := samplePanel()
	p.Series = p.Series[:1]
	if got := PanelSummary(p); got != "" {
		t.Fatalf("summary for unpaired panel = %q", got)
	}
}

func TestFormatCSV(t *testing.T) {
	out := FormatCSV(samplePanel())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines: %q", len(lines), out)
	}
	if lines[0] != "threads,Logical,Logical-RDTSCP" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if lines[3] != "4,3.000,9.000" {
		t.Fatalf("CSV row = %q", lines[3])
	}
}

func TestFormatChart(t *testing.T) {
	out := FormatChart(samplePanel(), 8)
	for _, want := range []string{"Figure 9z", "y-max = 9.0", "* = Logical", "o = Logical-RDTSCP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// Peak of the faster series must appear on the top row.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "o") {
		t.Fatalf("top row missing peak glyph:\n%s", out)
	}
	if got := FormatChart(Panel{Threads: []int{1}, Series: []Series{{Name: "x", Mops: []float64{0}}}}, 5); got != "(no data)\n" {
		t.Fatalf("empty chart = %q", got)
	}
}

// A mix prints the way the paper writes it, U-RQ-C, every share in full.
func TestWorkloadString(t *testing.T) {
	for _, want := range []string{"10-10-80", "0-0-100", "100-0-0"} {
		t.Run(want, func(t *testing.T) {
			var w Workload
			if _, err := fmt.Sscanf(want, "%d-%d-%d", &w.U, &w.RQ, &w.C); err != nil {
				t.Fatal(err)
			}
			if got := w.String(); got != want {
				t.Fatalf("Workload%+v.String() = %q, want %q", w, got, want)
			}
		})
	}
}
