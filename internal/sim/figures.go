package sim

import "strings"

// Series is one curve in a panel: throughput (Mops/s) per thread count.
type Series struct {
	Name string
	Mops []float64
}

// Panel is one subplot of a paper figure.
type Panel struct {
	ID       string // e.g. "2a"
	Workload string // U-RQ-C label, or a description
	Threads  []int
	Series   []Series
}

// Arm is one technique measured in a figure; every arm is drawn twice,
// on the logical counter (Name) and on the hardware one (Name-RDTSCP).
type Arm struct {
	Name string // series name, as the paper's legends spell it
	Spec string // structure/technique, as the native drivers' -arm spells it
	Tech Tech
}

// Figure is one figure of the paper's evaluation. This table is the only
// declaration of which arms and U-RQ-C mixes the paper measured: the
// simulator (Panels), cmd/reproduce's native path and the root package's
// BenchmarkFig* all read it.
type Figure struct {
	ID    string // "1".."5", "lazy"
	Title string
	Claim string // what the paper reports for it
	// Cost is the structure's traversal cost (ns) and HotLines its
	// internally contended lines; Arms is empty for Figure 1, which
	// measures the timestamp sources themselves.
	Cost     float64
	HotLines int
	Arms     []Arm
	Mixes    []Workload // one panel each, in the paper's a, b, c… order
	Spot     Workload   // the mix a native spot check runs
	KeyRange uint64     // native key range the figure fixes; 0 = the paper's 1M
}

// Figures lists the paper's evaluation in its own order.
var Figures = []Figure{
	{ID: "1", Title: "Figure 1: timestamp acquisition",
		Claim: ">= 95x bare at 192 threads; ~2.6x with interleaved work; logical ahead at 1 thread"},
	{ID: "2", Title: "Figure 2: vCAS on lock-free BST",
		Claim: "up to 5.5x with TSC; equal at 100-0-0",
		Cost:  CostBST, Arms: []Arm{{"vCAS", "bst/vcas", TechVcas}},
		Mixes: []Workload{
			{0, 10, 90}, {2, 10, 88}, {10, 10, 80}, {20, 10, 70},
			{0, 20, 80}, {2, 20, 78}, {10, 20, 70}, {20, 20, 60},
			{50, 10, 40}, {100, 0, 0},
		},
		Spot: Workload{10, 10, 80}},
	{ID: "3", Title: "Figure 3: Citrus with vCAS and Bundling",
		Claim: "vCAS gains most; Bundling flat on read-only",
		Cost:  CostCitrus, Arms: []Arm{{"vCAS", "citrus/vcas", TechVcas}, {"Bundle", "citrus/bundle", TechBundle}},
		Mixes: []Workload{
			{0, 10, 90}, {2, 10, 88}, {10, 10, 80},
			{20, 10, 70}, {50, 10, 40}, {90, 10, 0},
		},
		Spot: Workload{10, 10, 80}},
	{ID: "4", Title: "Figure 4: Citrus with EBR-RQ",
		Claim: "little/no gain; cliff past one NUMA zone",
		Cost:  CostCitrus, Arms: []Arm{{"EBR-RQ", "citrus/ebrrq", TechEBR}},
		Mixes: []Workload{
			{2, 10, 88}, {10, 10, 80}, {20, 10, 70},
			{50, 10, 40}, {90, 10, 0}, {100, 0, 0},
		},
		Spot: Workload{10, 10, 80}},
	{ID: "5", Title: "Figure 5: Skip list with Bundling",
		Claim: "gain only in update-heavy mixes",
		Cost:  CostSkip, HotLines: SkipHotLines, Arms: []Arm{{"Bundle", "skiplist/bundle", TechBundle}},
		Mixes: []Workload{{10, 10, 80}, {50, 10, 40}, {90, 10, 0}},
		Spot:  Workload{50, 10, 40}},
	// The negative result the paper discusses but does not plot: on a lazy
	// list the O(n) traversal hides the timestamp entirely. The native key
	// range is small to keep the quadratic set-up affordable.
	{ID: "lazy", Title: "Omitted result: lazy list",
		Claim: "no gain; traversal-bound",
		Cost:  CostLazy, Arms: []Arm{{"vCAS", "lazylist/vcas", TechVcas}, {"Bundle", "lazylist/bundle", TechBundle}},
		Mixes: []Workload{{10, 10, 80}},
		Spot:  Workload{10, 10, 80}, KeyRange: 2000},
}

// FigureByID looks a figure up by its ID.
func FigureByID(id string) (Figure, bool) {
	for _, f := range Figures {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// ThreadCounts is the sweep used for every simulated figure, following
// the paper's x-axes up to 192 hyperthreads.
var ThreadCounts = []int{1, 2, 4, 8, 16, 24, 48, 96, 144, 192}

// simDuration is the simulated horizon per run (ns). Runs are
// deterministic, so no repetition is needed.
const simDuration = 300_000

// sweep runs one arm across ThreadCounts.
func sweep(m *Machine, build func() []OpSpec) []float64 {
	out := make([]float64, len(ThreadCounts))
	for i, n := range ThreadCounts {
		out[i] = Run(m, Config{Threads: n, DurationNs: simDuration, Ops: build()})
	}
	return out
}

// Fig1WorkNs is the local work interleaved with timestamp acquisition in
// Figure 1's bottom panel, calibrated so the model reproduces the text's
// single-thread ordering (Logical ahead via caching) and its ~2.6x
// RDTSCP advantage at 192 threads.
const Fig1WorkNs = 5000

// fig1Kinds are Figure 1's series, named as core.Kind prints them.
var fig1Kinds = []string{"Logical", "RDTSCP", "RDTSC-CPUID", "RDTSCP-nofence", "RDTSC-nofence"}

// figure1 regenerates both panels of Figure 1.
func figure1(m *Machine) []Panel {
	mk := func(id string, work float64) Panel {
		p := Panel{ID: id, Workload: "timestamp acquisition", Threads: ThreadCounts}
		if work > 0 {
			p.Workload = "acquisition + local work"
		}
		for _, k := range fig1Kinds {
			p.Series = append(p.Series, Series{
				Name: k,
				Mops: sweep(m, func() []OpSpec { return TimestampOps(m, k, work) }),
			})
		}
		return p
	}
	return []Panel{mk("1-top", 0), mk("1-bottom", Fig1WorkNs)}
}

// Ops builds the operation mix of one of the figure's arms on one mix,
// on the logical (hw false) or the hardware timestamp.
func (f Figure) Ops(m *Machine, a Arm, hw bool, wl Workload) []OpSpec {
	return BuildOps(m, a.Tech, hw, f.Cost, wl, f.HotLines)
}

// Panels regenerates a figure on machine m: one panel per mix (2a, 2b, …;
// the lazy list's is La) holding a logical and an -RDTSCP series per arm.
func Panels(m *Machine, f Figure) []Panel {
	if len(f.Arms) == 0 {
		return figure1(m)
	}
	panels := make([]Panel, 0, len(f.Mixes))
	for i, wl := range f.Mixes {
		p := Panel{
			ID:       strings.ToUpper(f.ID[:1]) + string(rune('a'+i)),
			Workload: wl.String(),
			Threads:  ThreadCounts,
		}
		for _, arm := range f.Arms {
			p.Series = append(p.Series,
				Series{Name: arm.Name, Mops: sweep(m, func() []OpSpec { return f.Ops(m, arm, false, wl) })},
				Series{Name: arm.Name + "-RDTSCP", Mops: sweep(m, func() []OpSpec { return f.Ops(m, arm, true, wl) })},
			)
		}
		panels = append(panels, p)
	}
	return panels
}
