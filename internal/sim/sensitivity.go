package sim

// Sensitivity analysis: how the headline reproduction ratios respond to
// the calibration constants. This is how we argue the simulated shapes
// are properties of the contention model rather than artifacts of one
// parameter choice — the qualitative conclusions (who wins, where) must
// hold across wide parameter ranges, and `reproduce sensitivity` prints
// the sweeps.

// Headline identifies one paper-claim ratio the model reproduces.
type Headline struct {
	Name  string
	Claim string
	// Eval computes the ratio on machine m.
	Eval func(m *Machine) float64
}

// ratioAt is the hardware/logical throughput ratio of build's mix at one
// thread count.
func ratioAt(m *Machine, threads int, build func(hw bool) []OpSpec) float64 {
	run := func(hw bool) float64 {
		return Run(m, Config{Threads: threads, DurationNs: simDuration, Ops: build(hw)})
	}
	return run(true) / run(false)
}

// fig1Headline tracks Figure 1's RDTSCP/Logical ratio at 192 threads.
func fig1Headline(name, claim string, workNs float64) Headline {
	return Headline{Name: name, Claim: claim, Eval: func(m *Machine) float64 {
		return ratioAt(m, 192, func(hw bool) []OpSpec {
			if hw {
				return TimestampOps(m, "RDTSCP", workNs)
			}
			return TimestampOps(m, "Logical", workNs)
		})
	}}
}

// panelHeadline tracks the first arm of one panel ('a', 'b', …) of a
// figure in the table at 192 threads.
func panelHeadline(id string, panel byte, claim string) Headline {
	f, _ := FigureByID(id)
	return Headline{Name: "fig" + id + string(panel) + "@192", Claim: claim, Eval: func(m *Machine) float64 {
		return ratioAt(m, 192, func(hw bool) []OpSpec { return f.Ops(m, f.Arms[0], hw, f.Mixes[panel-'a']) })
	}}
}

// Headlines returns the tracked paper claims.
func Headlines() []Headline {
	return []Headline{
		fig1Headline("fig1-top@192", ">= 95x (RDTSCP vs Logical, bare acquisition)", 0),
		fig1Headline("fig1-bottom@192", "~2.6x with interleaved work", Fig1WorkNs),
		panelHeadline("2", 'e', "~5.5x (vCAS BST, 0-20-80)"),
		panelHeadline("4", 'b', "~1x (EBR-RQ keeps its lock)"),
		panelHeadline("5", 'c', ">1.4x (skip list, update-heavy)"),
	}
}

// Sweep is one calibration parameter to vary.
type Sweep struct {
	Name   string
	Values []float64
	Apply  func(m *Machine, v float64)
}

// Sweeps returns the default parameter sweeps around the calibrated
// values (marked by PaperMachine's defaults).
func Sweeps() []Sweep {
	return []Sweep{
		{
			Name:   "LineCrossZone(ns)",
			Values: []float64{60, 90, 120, 180, 240},
			Apply:  func(m *Machine, v float64) { m.LineCrossZone = v },
		},
		{
			Name:   "TSCFenced(ns)",
			Values: []float64{10, 25, 40, 80},
			Apply:  func(m *Machine, v float64) { m.TSCFenced = v },
		},
		{
			Name:   "SMTPenalty",
			Values: []float64{1.0, 1.2, 1.45, 1.8},
			Apply:  func(m *Machine, v float64) { m.SMTPenalty = v },
		},
		{
			Name:   "NUMAPenalty",
			Values: []float64{1.0, 1.08, 1.25},
			Apply:  func(m *Machine, v float64) { m.NUMAPenalty = v },
		},
	}
}

// SensitivityRow is one (parameter value, headline ratios) sample.
type SensitivityRow struct {
	Value  float64
	Ratios []float64 // parallel to Headlines()
}

// RunSweep evaluates every headline across one parameter sweep.
func RunSweep(sw Sweep, heads []Headline) []SensitivityRow {
	rows := make([]SensitivityRow, 0, len(sw.Values))
	for _, v := range sw.Values {
		m := PaperMachine()
		sw.Apply(m, v)
		row := SensitivityRow{Value: v}
		for _, h := range heads {
			row.Ratios = append(row.Ratios, h.Eval(m))
		}
		rows = append(rows, row)
	}
	return rows
}
