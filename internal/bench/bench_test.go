package bench

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"tscds"
	"tscds/internal/core"
	"tscds/internal/lfbst"
	"tscds/internal/sim"
)

type reg struct{ r *core.Registry }

func (r reg) RegisterThread() (*core.Thread, error) { return r.r.Register() }

func TestWorkloadValidation(t *testing.T) {
	if !PaperWorkload(10, 10, 80).Valid() {
		t.Fatal("paper workload invalid")
	}
	if (Workload{U: 50, RQ: 10, C: 10}).Valid() {
		t.Fatal("60%% mix accepted")
	}
	if got := PaperWorkload(2, 10, 88).Label(); got != "2-10-88" {
		t.Fatalf("label = %q", got)
	}
	if _, err := Run(nil, nil, Workload{U: 1, RQ: 1, C: 1}, Options{}); err == nil {
		t.Fatal("invalid workload accepted by Run")
	}
}

func TestZeroKeyRangeRejected(t *testing.T) {
	// A valid mix with KeyRange 0 used to divide by zero in the key draw.
	wl := Workload{U: 10, RQ: 10, C: 80}
	if _, err := Run(nil, nil, wl, Options{Threads: 1}); err == nil {
		t.Fatal("Run accepted zero key range")
	}
}

func TestPrefillHalf(t *testing.T) {
	r := core.NewRegistry(4)
	tr := lfbst.New(core.New(core.Logical), r)
	if err := Prefill(tr, reg{r}, 1000); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != 500 {
		t.Fatalf("prefill produced %d keys, want 500", got)
	}
}

func TestRunMeasuresAllOpClasses(t *testing.T) {
	r := core.NewRegistry(8)
	tr := lfbst.New(core.New(core.TSC), r)
	if err := Prefill(tr, reg{r}, 10_000); err != nil {
		t.Fatal(err)
	}
	wl := Workload{U: 20, RQ: 20, C: 60, KeyRange: 10_000, RQLen: 50}
	res, err := Run(tr, reg{r}, wl, Options{
		Threads: 2, Duration: 60 * time.Millisecond, Trials: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean <= 0 {
		t.Fatalf("mean = %v", res.Mean)
	}
	if len(res.Trials) != 2 {
		t.Fatalf("trials = %v", res.Trials)
	}
	total := res.OpSplit[0] + res.OpSplit[1] + res.OpSplit[2]
	if total == 0 {
		t.Fatal("no ops recorded")
	}
	for i, name := range []string{"updates", "rqs", "contains"} {
		if res.OpSplit[i] == 0 {
			t.Fatalf("no %s executed", name)
		}
	}
	// Mix roughly honored (within very loose bounds).
	fu := float64(res.OpSplit[0]) / float64(total)
	if fu < 0.1 || fu > 0.3 {
		t.Fatalf("update fraction = %.2f, want ~0.2", fu)
	}
}

func TestTableRendering(t *testing.T) {
	series := map[string][]Result{
		"Logical": {{Mean: 1.5}, {Mean: 2.5, CV: 4.3}},
		"RDTSCP":  {{Mean: 3.5}},
	}
	out := Table("Fig X", []int{1, 2}, series)
	for _, want := range []string{"Fig X", "threads", "Logical", "RDTSCP", "1.50 Mops ± 0.0%", "2.50 Mops ± 4.3%", "3.50", " -\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestZipfWorkloadSkewsKeys(t *testing.T) {
	r := core.NewRegistry(4)
	tr := lfbst.New(core.New(core.Logical), r)
	wl := Workload{U: 0, RQ: 0, C: 100, KeyRange: 1000, ZipfS: 1.5}
	res, err := Run(tr, reg{r}, wl, Options{Threads: 1, Duration: 30 * time.Millisecond, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpSplit[2] == 0 {
		t.Fatal("no contains ops under zipf workload")
	}
	// Distribution check on the generator itself: low keys dominate.
	zr := rand.New(rand.NewSource(1))
	z := rand.NewZipf(zr, 1.5, 1, 999)
	low := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if z.Uint64() < 10 {
			low++
		}
	}
	if float64(low)/n < 0.5 {
		t.Fatalf("zipf(1.5): only %.1f%% of keys below 10; expected heavy skew", 100*float64(low)/n)
	}
}

func TestParseThreads(t *testing.T) {
	got, err := ParseThreads("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 8 {
		t.Fatalf("ParseThreads = %v, %v", got, err)
	}
	if _, err := ParseThreads("0"); err == nil {
		t.Fatal("zero accepted")
	}
	if _, err := ParseThreads("x"); err == nil {
		t.Fatal("garbage accepted")
	}
	def, err := ParseThreads("")
	if err != nil || len(def) == 0 || def[len(def)-1] != runtime.NumCPU() {
		t.Fatalf("default ParseThreads = %v, %v", def, err)
	}
	for i := 1; i < len(def); i++ {
		if def[i] <= def[i-1] {
			t.Fatalf("default thread list not increasing: %v", def)
		}
	}
}

// The figure table (internal/sim) against the paper and against the arm
// names: the panels are the paper's, and every arm it names is one
// ParseArm resolves and tscds.New builds on both sources.
func TestFigureTable(t *testing.T) {
	want := map[string]struct {
		mixes int
		arms  []string
	}{
		"1":    {0, nil},
		"2":    {10, []string{"bst/vcas"}},
		"3":    {6, []string{"citrus/vcas", "citrus/bundle"}},
		"4":    {6, []string{"citrus/ebrrq"}},
		"5":    {3, []string{"skiplist/bundle"}},
		"lazy": {1, []string{"lazylist/vcas", "lazylist/bundle"}},
	}
	if len(sim.Figures) != len(want) {
		t.Fatalf("table holds %d figures, want %d", len(sim.Figures), len(want))
	}
	for _, f := range sim.Figures {
		w, ok := want[f.ID]
		if !ok {
			t.Fatalf("figure %q is not one of the paper's", f.ID)
		}
		if f.Title == "" || f.Claim == "" {
			t.Errorf("figure %s lacks a title or a paper claim", f.ID)
		}
		if len(f.Mixes) != w.mixes || len(f.Arms) != len(w.arms) {
			t.Errorf("figure %s: %d mixes x %d arms, want %d x %d", f.ID, len(f.Mixes), len(f.Arms), w.mixes, len(w.arms))
			continue
		}
		for _, mix := range f.Mixes {
			if !PaperWorkload(mix.U, mix.RQ, mix.C).Valid() {
				t.Errorf("figure %s: mix %s does not sum to 100", f.ID, mix)
			}
		}
		if len(f.Arms) > 0 && !PaperWorkload(f.Spot.U, f.Spot.RQ, f.Spot.C).Valid() {
			t.Errorf("figure %s: spot mix %s does not sum to 100", f.ID, f.Spot)
		}
		for i, a := range f.Arms {
			if a.Spec != w.arms[i] {
				t.Errorf("figure %s arm %d is %s, want %s", f.ID, i, a.Spec, w.arms[i])
			}
			s, tech, err := ParseArm(a.Spec)
			if err != nil {
				t.Errorf("figure %s: %v", f.ID, err)
				continue
			}
			for _, src := range []tscds.SourceKind{tscds.Logical, tscds.TSC} {
				if _, err := tscds.New(s, tech, tscds.Config{Source: src}); err != nil {
					t.Errorf("figure %s arm %s on %v: %v", f.ID, a.Spec, src, err)
				}
			}
		}
	}
}

// Arms is what `reproduce probe` walks: every combination tscds.New
// accepts on the logical source.
func TestArmsEnumeratesWhatNewAccepts(t *testing.T) {
	want := []string{
		"bst/ebrrq", "bst/ebrrq-lockfree", "bst/vcas",
		"citrus/bundle", "citrus/ebrrq", "citrus/ebrrq-lockfree", "citrus/vcas",
		"lazylist/bundle", "lazylist/vcas",
		"skiplist/bundle", "skiplist/ebrrq", "skiplist/ebrrq-lockfree", "skiplist/vcas",
	}
	sort.Strings(want)
	if got := Arms(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Arms() = %v\nwant     %v", got, want)
	}
	if _, _, err := ParseArm("citrus"); err == nil {
		t.Fatal("ParseArm accepted a structure without a technique")
	}
	if _, _, err := ParseArm("citrus/locks"); err == nil {
		t.Fatal("ParseArm accepted an unknown technique")
	}
}
