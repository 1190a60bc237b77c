package bench

import (
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"tscds"
	"tscds/internal/sim"
)

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
	if _, err := Run(nil, Workload{U: 1, RQ: 1, C: 1}, Options{}); err == nil {
		t.Fatal("invalid workload accepted by Run")
	}
}

func TestZeroKeyRangeRejected(t *testing.T) {
	// A valid mix with KeyRange 0 used to divide by zero in the key draw.
	wl := Workload{U: 10, RQ: 10, C: 80}
	if _, err := Run(nil, wl, Options{Threads: 1}); err == nil {
		t.Fatal("Run accepted zero key range")
	}
}

func TestPrefillHalf(t *testing.T) {
	m, err := tscds.New(tscds.BST, tscds.VCAS, tscds.Config{Source: tscds.Logical})
	if err != nil {
		t.Fatal(err)
	}
	if err := Prefill(m, 1000); err != nil {
		t.Fatal(err)
	}
	if got := m.Len(); got != 500 {
		t.Fatalf("prefill produced %d keys, want 500", got)
	}
}

// Two workers, each pinned: under -race this is also the check that
// pinning shares no state between workers.
func TestRunMeasuresAllOpClasses(t *testing.T) {
	m, err := tscds.New(tscds.BST, tscds.VCAS, tscds.Config{Source: tscds.TSC})
	if err != nil {
		t.Fatal(err)
	}
	if err := Prefill(m, 10_000); err != nil {
		t.Fatal(err)
	}
	wl := Workload{U: 20, RQ: 20, C: 60, KeyRange: 10_000, RQLen: 50}
	res, err := Run(m, wl, Options{
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
	// Mix roughly honored (within wide bounds).
	fu := float64(res.OpSplit[0]) / float64(total)
	if fu < 0.1 || fu > 0.3 {
		t.Fatalf("update fraction = %.2f, want ~0.2", fu)
	}
}

// Figure 1's body: every read is one counted operation, bare and with
// local work, and the rate is what the counts say.
func TestRunReadCountsEveryRead(t *testing.T) {
	for _, work := range []bool{false, true} {
		var calls atomic.Int64
		read := func() uint64 { return uint64(calls.Add(1)) }
		res := RunRead(read, work, Options{Threads: 2, Duration: 20 * time.Millisecond, Trials: 2})
		if got := res.OpSplit[2]; got == 0 || got != calls.Load() {
			t.Fatalf("work=%v: %d reads counted, %d made", work, got, calls.Load())
		}
		if len(res.Trials) != 2 || res.Mean <= 0 {
			t.Fatalf("work=%v: trials %v, mean %v", work, res.Trials, res.Mean)
		}
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

// Arms is what the root package's TestSnapshotOrder and
// TestUpdateAfterClose walk: every combination tscds.New accepts on the
// logical source.
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

// Figure 1's native read table: the simulation models every read under
// the same name (TimestampOps panics on a name it does not know), and each
// read moves forward over a window of reads.
func TestFig1Reads(t *testing.T) {
	m := sim.PaperMachine()
	for _, r := range Fig1Reads {
		t.Run(r.Name, func(t *testing.T) {
			if len(sim.TimestampOps(m, r.Name, 0)) == 0 {
				t.Fatalf("the simulation models %s with no operation", r.Name)
			}
			a := r.Read()
			for j := 0; j < 10_000; j++ {
				r.Read()
			}
			if b := r.Read(); b <= a {
				t.Fatalf("%s read %d, then %d after 10,000 reads", r.Name, a, b)
			}
		})
	}
}
