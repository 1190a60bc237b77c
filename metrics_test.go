package tscds

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"tscds/internal/obs"
	"tscds/internal/obs/promparse"
	"tscds/internal/tsc"
)

// TestRangeQueryEmptyInterval checks that hi < lo is an empty interval:
// no results, buf unchanged, and fn never called from Scan.
func TestRangeQueryEmptyInterval(t *testing.T) {
	for _, c := range allCombos() {
		t.Run(fmt.Sprintf("%v-%v", c.S, c.T), func(t *testing.T) {
			m, err := New(c.S, c.T, Config{Source: Logical, MaxThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			for k := uint64(0); k < 10; k++ {
				m.Insert(th, k, k)
			}
			buf := []KV{{Key: 99, Val: 99}}
			got := m.RangeQuery(th, 5, 4, buf)
			if len(got) != 1 || got[0].Key != 99 {
				t.Fatalf("RangeQuery(5,4) = %v, want buf unchanged", got)
			}
			if got := m.RangeQuery(th, ^uint64(0), 0, nil); len(got) != 0 {
				t.Fatalf("RangeQuery(max,0) = %v, want empty", got)
			}
			m.Scan(th, 5, 4, func(KV) bool {
				t.Fatal("Scan(5,4) called fn")
				return false
			})
		})
	}
}

// TestMetricsSmoke drives every combo with metrics attached and checks
// the snapshot reports the traffic: op counts per class, source stats,
// and (after enough churn on one structure) reclamation counters.
func TestMetricsSmoke(t *testing.T) {
	for _, c := range allCombos() {
		t.Run(fmt.Sprintf("%v-%v", c.S, c.T), func(t *testing.T) {
			reg := NewMetrics()
			m, err := New(c.S, c.T, Config{Source: Logical, MaxThreads: 4, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			for k := uint64(0); k < 100; k++ {
				m.Insert(th, k, k)
			}
			for k := uint64(0); k < 100; k++ {
				m.Contains(th, k)
				m.Get(th, k)
			}
			m.RangeQuery(th, 0, 50, nil)
			m.Scan(th, 0, 50, func(KV) bool { return true })
			for k := uint64(0); k < 50; k++ {
				m.Delete(th, k)
			}

			snap := reg.Snapshot()
			if snap.Source.Kind != "Logical" {
				t.Fatalf("source kind = %q", snap.Source.Kind)
			}
			if got := snap.Ops["update"].Count; got != 150 {
				t.Fatalf("update count = %d, want 150", got)
			}
			if got := snap.Ops["contains"].Count; got != 200 {
				t.Fatalf("contains count = %d, want 200", got)
			}
			if got := snap.Ops["range-query"].Count; got != 2 {
				t.Fatalf("range-query count = %d, want 2", got)
			}
			// Every combo touches the source: bundles advance it on each
			// update, vCAS and EBR-RQ label lazily via Peek/Snapshot.
			if snap.Source.Advances+snap.Source.Peeks+snap.Source.Snapshots == 0 {
				t.Fatal("no source traffic recorded")
			}
			// The snapshot must be valid JSON via String.
			var decoded MetricsSnapshot
			if err := json.Unmarshal([]byte(reg.String()), &decoded); err != nil {
				t.Fatalf("snapshot JSON: %v", err)
			}
		})
	}
}

// TestMetricsReclamationCounters churns a few keys and checks the GC
// counters move.
func TestMetricsReclamationCounters(t *testing.T) {
	cases := []struct {
		s     Structure
		t     Technique
		field func(MetricsSnapshot) uint64
		name  string
	}{
		{Citrus, VCAS, func(s MetricsSnapshot) uint64 { return s.GC.VcasVersionsPruned }, "vcas_versions_pruned"},
		{Citrus, Bundle, func(s MetricsSnapshot) uint64 { return s.GC.BundleEntriesPruned }, "bundle_entries_pruned"},
		{Citrus, EBRRQ, func(s MetricsSnapshot) uint64 { return s.GC.LimboRetired }, "limbo_retired"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v-%v", c.s, c.t), func(t *testing.T) {
			reg := NewMetrics()
			m, err := New(c.s, c.t, Config{Source: Logical, MaxThreads: 4, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			// Repeatedly rewrite the same keys so the version chains and
			// bundles grow and get pruned by the writes that extend them
			// (no RQ is active, so the bound lets everything go).
			for round := 0; round < 200; round++ {
				for k := uint64(0); k < 512; k += 64 {
					m.Insert(th, k, k)
					m.Delete(th, k)
				}
			}
			if got := c.field(reg.Snapshot()); got == 0 {
				t.Fatalf("%s = 0 after churn", c.name)
			}
		})
	}
}

// TestMetricsActualFollowsFailover: the registry reads the serving kind
// when it snapshots. After an Adaptive map fails over to the logical
// counter, SourceActual, the JSON snapshot and the actual label of
// tscds_source_info all say Logical, on a flat map and a sharded one.
func TestMetricsActualFollowsFailover(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			health := NewTSCHealth(4)
			reg := NewMetrics()
			m := newMap(t, SkipList, Bundle, shards, Config{Source: Adaptive, Health: health, MaxThreads: 4, Metrics: reg})
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			m.Insert(th, 1, 1)
			health.InjectBackstep(uint64(time.Hour))
			m.RangeQuery(th, 0, 10, nil) // its snapshot bound sees the fault and fails over

			if got := m.SourceActual(); got != Logical {
				t.Fatalf("SourceActual() = %v after failover, want Logical", got)
			}
			if got := reg.Snapshot().Source.Actual; got != Logical.String() {
				t.Errorf("Snapshot().Source.Actual = %q, want %q", got, Logical.String())
			}
			var buf bytes.Buffer
			reg.WriteProm(&buf)
			res, diags := promparse.Parse(buf.Bytes())
			if len(diags) > 0 {
				t.Fatalf("strict parse diagnostics: %v", diags)
			}
			if _, ok := res.Value("tscds_source_info", map[string]string{"requested": Adaptive.String(), "actual": Logical.String()}); !ok {
				t.Errorf("no tscds_source_info{requested=%q, actual=%q} sample in\n%s", Adaptive, Logical, buf.String())
			}
		})
	}
}

// TestAlertExpressionsNameServedFamilies reads the alert table of
// EXPERIMENTS.md and requires each alert to be there, and to select only
// families and label names that a fully wired /metrics.prom serves: the
// registry with its pool and WAL blocks, plus the TSC health monitor.
func TestAlertExpressionsNameServedFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetStructure("bst/vcas")
	reg.SetSourceKind("Adaptive")
	reg.SetAllocMode("Pool")
	reg.SetWALMode("sync")
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	tsc.NewHealth(8).WriteProm(&buf)
	res, diags := promparse.Parse(buf.Bytes())
	if len(diags) > 0 {
		t.Fatalf("strict parse diagnostics: %v", diags)
	}

	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## Alert expressions\n")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "## Alert expressions" section`)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	row := regexp.MustCompile("(?m)^\\| `([a-z-]+)` \\| (?:critical|warn) \\| (.*) \\|$")
	exprs := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(table, -1) {
		exprs[m[1]] = m[2]
	}

	family := regexp.MustCompile(`tscds_[a-z_]+`)
	selector := regexp.MustCompile(`(tscds_[a-z_]+)\{([^}]*)\}`)
	matcher := regexp.MustCompile(`([a-z_]+)\s*(?:=~|!~|!=|=)`)
	for _, name := range []string{
		"tsc-backstep", "source-degraded", "source-switch",
		"snapshot-retry-spike", "limbo-growth", "wal-error", "pool-hit-collapse",
	} {
		t.Run(name, func(t *testing.T) {
			expr, ok := exprs[name]
			if !ok {
				t.Fatalf("no row for %s in the alert table", name)
			}
			for _, fam := range family.FindAllString(expr, -1) {
				if res.Family(fam) == nil {
					t.Errorf("%s is not served", fam)
				}
			}
			for _, sel := range selector.FindAllStringSubmatch(expr, -1) {
				f := res.Family(sel[1])
				if f == nil || len(f.Samples) == 0 {
					continue // reported above
				}
				for _, lm := range matcher.FindAllStringSubmatch(sel[2], -1) {
					if _, ok := f.Samples[0].Labels[lm[1]]; !ok {
						t.Errorf("%s has no label %q", sel[1], lm[1])
					}
				}
			}
		})
	}
}

// TestMetricsNilIsDefault checks plain configs stay uninstrumented.
func TestMetricsNilIsDefault(t *testing.T) {
	m, err := New(BST, VCAS, Config{Source: Logical})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Release()
	if !m.Insert(th, 1, 1) || !m.Contains(th, 1) {
		t.Fatal("basic ops broken without metrics")
	}
}
