package sim

import (
	"testing"

	"tscds/internal/bench"
)

func TestEngineOrdering(t *testing.T) {
	e := &Engine{}
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.At(10, func() { order = append(order, 11) }) // FIFO at equal times
	e.Run(100)
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineHorizon(t *testing.T) {
	e := &Engine{}
	ran := false
	e.At(500, func() { ran = true })
	e.Run(100)
	if ran {
		t.Fatal("event past horizon executed")
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want horizon", e.Now())
	}
}

func TestLineSerializesWriters(t *testing.T) {
	m := PaperMachine()
	e := &Engine{}
	l := NewLine()
	w1 := &worker{id: 0, zone: 0, lineSeen: map[*Line]uint64{}}
	w2 := &worker{id: 1, zone: 1, lineSeen: map[*Line]uint64{}}
	var t1, t2 float64
	l.access(e, m, w1, true, func() { t1 = e.Now() })
	l.access(e, m, w2, true, func() { t2 = e.Now() })
	e.Run(1e6)
	if t1 <= 0 || t2 <= t1 {
		t.Fatalf("writers not serialized: %v then %v", t1, t2)
	}
	if t2-t1 < m.LineCrossZone {
		t.Fatalf("cross-zone transfer too cheap: %v", t2-t1)
	}
}

func TestLineCachedRead(t *testing.T) {
	m := PaperMachine()
	e := &Engine{}
	l := NewLine()
	w := &worker{id: 0, zone: 0, lineSeen: map[*Line]uint64{}}
	var first, second float64
	l.access(e, m, w, true, func() {
		first = e.Now()
		l.access(e, m, w, false, func() { second = e.Now() })
	})
	e.Run(1e6)
	if second-first > m.LineCached+0.001 {
		t.Fatalf("re-read not cached: cost %v", second-first)
	}
}

func TestRWLockExclusionAndFairness(t *testing.T) {
	m := PaperMachine()
	e := &Engine{}
	k := NewRWLock()
	w1 := &worker{id: 0, zone: 0, lineSeen: map[*Line]uint64{}}
	w2 := &worker{id: 1, zone: 0, lineSeen: map[*Line]uint64{}}
	w3 := &worker{id: 2, zone: 0, lineSeen: map[*Line]uint64{}}
	var events []string
	// Writer holds; reader queued; second writer queued behind reader.
	k.acquire(e, m, w1, true, func() {
		events = append(events, "w1-acq")
		e.After(100, func() {
			k.release(e, m, w1, true, func() { events = append(events, "w1-rel") })
		})
	})
	e.After(1, func() {
		k.acquire(e, m, w2, false, func() {
			events = append(events, "r2-acq")
			k.release(e, m, w2, false, func() {})
		})
	})
	e.After(2, func() {
		k.acquire(e, m, w3, true, func() {
			events = append(events, "w3-acq")
			k.release(e, m, w3, true, func() {})
		})
	})
	e.Run(1e6)
	if len(events) != 4 {
		t.Fatalf("events = %v", events)
	}
	// Mutual exclusion: nobody acquires before the writer releases; the
	// relative order of the queued reader and writer is up to the word
	// line's arbitration.
	if events[0] != "w1-acq" || events[1] != "w1-rel" {
		t.Fatalf("events = %v: writer not exclusive", events)
	}
	rest := map[string]bool{events[2]: true, events[3]: true}
	if !rest["r2-acq"] || !rest["w3-acq"] {
		t.Fatalf("events = %v: queued requests not granted", events)
	}
}

func TestRunDeterministic(t *testing.T) {
	m := PaperMachine()
	build := func() []OpSpec { return BuildOps(m, TechVcas, false, CostBST, Workload{U: 10, RQ: 10, C: 80}, 0) }
	a := Run(m, Config{Threads: 48, DurationNs: 100_000, Ops: build()})
	b := Run(m, Config{Threads: 48, DurationNs: 100_000, Ops: build()})
	if a != b {
		t.Fatalf("simulation not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("throughput %v", a)
	}
}

func TestPlacementCoversMachine(t *testing.T) {
	m := PaperMachine()
	if m.HWThreads() != 192 {
		t.Fatalf("HWThreads = %d", m.HWThreads())
	}
	// First 24 workers on distinct cores of zone 0 (Figure 4 narrative).
	seen := map[int]bool{}
	for i := 0; i < 24; i++ {
		p := m.place(i)
		if p.zone != 0 {
			t.Fatalf("worker %d on zone %d", i, p.zone)
		}
		if seen[p.core] {
			t.Fatalf("worker %d shares core %d before cores exhausted", i, p.core)
		}
		seen[p.core] = true
	}
	// Workers 24..47 are the SMT siblings of 0..23.
	for i := 24; i < 48; i++ {
		p := m.place(i)
		if p.zone != 0 || p.smt != 1 || p.core != m.place(i-24).core {
			t.Fatalf("worker %d not sibling of %d: %+v", i, i-24, p)
		}
	}
	// Worker 48 starts zone 1.
	if p := m.place(48); p.zone != 1 {
		t.Fatalf("worker 48 on zone %d", p.zone)
	}
}

func TestWorkFactorSMT(t *testing.T) {
	m := PaperMachine()
	// With 24 threads, nobody shares a core.
	if f := m.workFactor(0, 24); f != 1.0 {
		t.Fatalf("factor(0,24) = %v", f)
	}
	// With 48 threads, worker 0's sibling (24) is active.
	if f := m.workFactor(0, 48); f != m.SMTPenalty {
		t.Fatalf("factor(0,48) = %v", f)
	}
	// Remote zone carries the NUMA penalty.
	if f := m.workFactor(48, 49); f != m.NUMAPenalty {
		t.Fatalf("factor(48,49) = %v", f)
	}
}

// fig fetches a figure of the table.
func fig(t *testing.T, id string) Figure {
	t.Helper()
	f, ok := FigureByID(id)
	if !ok {
		t.Fatalf("figure %q not in the table", id)
	}
	return f
}

// mix returns the figure's panel for a U-RQ-C mix, which must be one the
// paper plots.
func mix(t *testing.T, f Figure, label string) Workload {
	t.Helper()
	for _, wl := range f.Mixes {
		if wl.String() == label {
			return wl
		}
	}
	t.Fatalf("figure %s has no %s panel", f.ID, label)
	return Workload{}
}

// The model must reproduce the paper's headline shapes. Every sweep runs
// only at the thread counts its assertions read.
func TestPaperShapes(t *testing.T) {
	m := PaperMachine()

	stamp := func(kind string, work float64, threads int) float64 {
		return Run(m, Config{Threads: threads, DurationNs: simDuration, Ops: TimestampOps(m, kind, work)})
	}
	// at runs arm a of figure f on one mix, logical or hardware.
	at := func(f Figure, a int, hw bool, wl Workload, threads int) float64 {
		return Run(m, Config{Threads: threads, DurationNs: simDuration, Ops: f.Ops(m, f.Arms[a], hw, wl)})
	}
	speedup := func(f Figure, a int, wl Workload) float64 {
		return at(f, a, true, wl, 192) / at(f, a, false, wl, 192)
	}

	t.Run("fig1-top: RDTSCP >= 95x Logical at 192", func(t *testing.T) {
		ratio := stamp("RDTSCP", 0, 192) / stamp("Logical", 0, 192)
		if ratio < 95 {
			t.Fatalf("RDTSCP/Logical at 192 = %.1fx, want >= 95x", ratio)
		}
		// Single thread: logical benefits from caching.
		if l, r := stamp("Logical", 0, 1), stamp("RDTSCP", 0, 1); l < r {
			t.Fatalf("at 1 thread logical (%.1f) should beat fenced RDTSCP (%.1f)", l, r)
		}
	})

	t.Run("fig1-bottom: ~2.6x at 192, logical ahead at 1", func(t *testing.T) {
		ratio := stamp("RDTSCP", Fig1WorkNs, 192) / stamp("Logical", Fig1WorkNs, 192)
		if ratio < 1.8 || ratio > 3.5 {
			t.Fatalf("bottom-panel ratio at 192 = %.2fx, want ~2.6x", ratio)
		}
		if stamp("Logical", Fig1WorkNs, 1) < stamp("RDTSCP", Fig1WorkNs, 1) {
			t.Fatal("logical should win at 1 thread via caching")
		}
	})

	t.Run("fig2: vCAS TSC speedup grows with RQ rate", func(t *testing.T) {
		f := fig(t, "2")
		s10 := speedup(f, 0, mix(t, f, "0-10-90"))
		s20 := speedup(f, 0, mix(t, f, "0-20-80"))
		if s10 < 2 {
			t.Fatalf("0-10-90 speedup = %.2fx, want >= 2x", s10)
		}
		if s20 <= s10 {
			t.Fatalf("speedup should grow with RQ rate: %.2fx (10%%) vs %.2fx (20%%)", s10, s20)
		}
		if s20 < 3.5 || s20 > 8 {
			t.Fatalf("0-20-80 speedup = %.2fx, want ~5.5x", s20)
		}
		// Update-only: identical (RQs advance the timestamp in vCAS).
		if r := speedup(f, 0, mix(t, f, "100-0-0")); r < 0.9 || r > 1.25 {
			t.Fatalf("100-0-0 ratio = %.2fx, want ~1x", r)
		}
	})

	t.Run("fig3a: Bundling read-only is TSC-neutral", func(t *testing.T) {
		f := fig(t, "3")
		if f.Arms[1].Tech != TechBundle {
			t.Fatalf("figure 3's second arm is %s, want Bundle", f.Arms[1].Name)
		}
		if r := speedup(f, 1, mix(t, f, "0-10-90")); r < 0.9 || r > 1.15 {
			t.Fatalf("bundle read-only ratio = %.2fx, want ~1x", r)
		}
	})

	t.Run("fig4: EBR-RQ gains little from TSC and cliffs past 24", func(t *testing.T) {
		f := fig(t, "4")
		wl := mix(t, f, "10-10-80")
		if r := speedup(f, 0, wl); r > 1.5 {
			t.Fatalf("EBR-RQ TSC speedup = %.2fx; the lock should cap it near 1x", r)
		}
		if zone, all := at(f, 0, true, wl, 24), at(f, 0, true, wl, 192); all > zone*1.5 {
			t.Fatalf("EBR-RQ should not scale far past one NUMA zone: 24t=%.1f, 192t=%.1f", zone, all)
		}
	})

	t.Run("fig5: skip list gains only when update-heavy", func(t *testing.T) {
		f := fig(t, "5")
		light := speedup(f, 0, mix(t, f, "10-10-80"))
		heavy := speedup(f, 0, mix(t, f, "90-10-0"))
		if light > 1.35 {
			t.Fatalf("read-heavy skip list speedup = %.2fx; the structure bottleneck should hide TSC", light)
		}
		if heavy < 1.4 {
			t.Fatalf("update-heavy skip list speedup = %.2fx, want > 1.4x", heavy)
		}
		if heavy <= light {
			t.Fatalf("speedup must grow with update rate: %.2f vs %.2f", light, heavy)
		}
	})

	t.Run("lazylist: traversal hides the timestamp", func(t *testing.T) {
		f := fig(t, "lazy")
		if r := speedup(f, 0, mix(t, f, "10-10-80")); r > 1.1 {
			t.Fatalf("lazy list TSC speedup = %.2fx, want ~1x", r)
		}
	})
}

// Panels is checked for structure against the table on the cheapest
// figure with more than one panel; the mixes and arms themselves are
// pinned by internal/bench's TestFigureTable.
func TestPanelsFollowTheTable(t *testing.T) {
	m := PaperMachine()
	f := fig(t, "5")
	panels := Panels(m, f)
	if len(panels) != len(f.Mixes) {
		t.Fatalf("%d panels for %d mixes", len(panels), len(f.Mixes))
	}
	for i, p := range panels {
		if want := "5" + string(rune('a'+i)); p.ID != want || p.Workload != f.Mixes[i].String() {
			t.Fatalf("panel %d is %s (%s), want %s (%s)", i, p.ID, p.Workload, want, f.Mixes[i])
		}
		if len(p.Series) != 2*len(f.Arms) || len(p.Threads) != len(ThreadCounts) {
			t.Fatalf("panel %s malformed", p.ID)
		}
		for j, s := range p.Series {
			if want := f.Arms[j/2].Name + []string{"", "-RDTSCP"}[j%2]; s.Name != want {
				t.Fatalf("panel %s series %d is %q, want %q", p.ID, j, s.Name, want)
			}
			if len(s.Mops) != len(ThreadCounts) {
				t.Fatalf("panel %s series %s malformed", p.ID, s.Name)
			}
			for _, v := range s.Mops {
				if v <= 0 {
					t.Fatalf("panel %s series %s has nonpositive throughput", p.ID, s.Name)
				}
			}
		}
	}
	if id := Panels(m, fig(t, "lazy"))[0].ID; id != "La" {
		t.Fatalf("lazy-list panel is %q, want La", id)
	}
}

// Sensitivity: the qualitative conclusions must be stable across wide
// parameter ranges — EBR-RQ pinned near 1x, vCAS well above it. Only the
// two headlines the assertions read are evaluated.
func TestSensitivityQualitativeStability(t *testing.T) {
	var heads []Headline
	for _, h := range Headlines() {
		if h.Name == "fig2e@192" || h.Name == "fig4b@192" {
			heads = append(heads, h)
		}
	}
	if len(heads) != 2 {
		t.Fatalf("headlines fig2e@192 and fig4b@192 not both tracked: %v", heads)
	}
	for _, sw := range Sweeps() {
		for _, row := range RunSweep(sw, heads) {
			vcas, ebr := row.Ratios[0], row.Ratios[1]
			if vcas < 1.5 {
				t.Errorf("%s=%v: vCAS ratio collapsed to %.2fx", sw.Name, row.Value, vcas)
			}
			if ebr > 1.6 {
				t.Errorf("%s=%v: EBR-RQ ratio inflated to %.2fx", sw.Name, row.Value, ebr)
			}
			if vcas <= ebr {
				t.Errorf("%s=%v: ordering inverted (vCAS %.2fx <= EBR %.2fx)", sw.Name, row.Value, vcas, ebr)
			}
		}
	}
}

// §IV's final takeaway: a lock-free structure with non-blocking bulk
// operations on TSC beats the logical-timestamp state of the art "with
// half of the processing power (i.e., half the amount of cores)".
func TestHalfTheCoresTakeaway(t *testing.T) {
	m := PaperMachine()
	f := fig(t, "2")
	wl := mix(t, f, "0-10-90") // Figure 2a
	at := func(hw bool, threads int) float64 {
		return Run(m, Config{Threads: threads, DurationNs: simDuration, Ops: f.Ops(m, f.Arms[0], hw, wl)})
	}
	tscHalf := at(true, 96)
	logicalFull := at(false, 192)
	if tscHalf <= logicalFull {
		t.Fatalf("vCAS-TSC at 96 threads (%.1f Mops) should beat vCAS-Logical at 192 (%.1f Mops)",
			tscHalf, logicalFull)
	}
}

// Figure 1's simulated series are the native read table's, in its order,
// so `reproduce fig 1` prints the same five series in either mode.
func TestFig1KindsMatchNative(t *testing.T) {
	if len(fig1Kinds) != len(bench.Fig1Reads) {
		t.Fatalf("simulated series %v, native table holds %d reads", fig1Kinds, len(bench.Fig1Reads))
	}
	for i, r := range bench.Fig1Reads {
		if fig1Kinds[i] != r.Name {
			t.Errorf("series %d simulated as %s, read natively as %s", i, fig1Kinds[i], r.Name)
		}
	}
}
