package tscds

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"tscds/internal/obs"
	"tscds/internal/obs/promparse"
	"tscds/internal/tsc"
	"tscds/internal/wal/faultfs"
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

// TestSharedRegistry holds the contract Config.Metrics documents for a
// registry shared by several Maps: a durable, pooled, 4-shard EBR-RQ skip
// list and then a flat vCAS BST report into one registry, and the same
// operations run again on a registry per map. The shared registry's op
// counts and GC counters are the sums of the two; its labels are the
// BST's, the last map built; its Pool and WAL blocks show because the skip
// list feeds them; its shard table is the skip list's; and its exposition
// parses strictly.
func TestSharedRegistry(t *testing.T) {
	run := func(slReg, bstReg *Metrics) {
		sl, err := NewSharded(SkipList, EBRRQ, 4, Config{Source: TSC, MaxThreads: 4, Alloc: AllocPool, Metrics: slReg,
			Durability: &Durability{Dir: "wal", FS: faultfs.New(faultfs.Fault{})}})
		if err != nil {
			t.Fatal(err)
		}
		bst, err := New(BST, VCAS, Config{Source: Logical, MaxThreads: 2, Metrics: bstReg})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Map{sl, bst} {
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			// Keys 97 apart cross a 256-key block every few keys, so every
			// shard of the skip list serves point operations.
			for k := uint64(0); k < 600; k++ {
				m.Insert(th, k*97, k)
				m.Get(th, k*97/2)
				if k%3 == 0 {
					m.Delete(th, k*97/2)
				}
				if k%50 == 0 {
					m.RangeQuery(th, k*97, k*97+2000, nil)
				}
			}
			th.Release()
		}
		if err := sl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	shared, slSolo, bstSolo := NewMetrics(), NewMetrics(), NewMetrics()
	run(shared, shared)
	run(slSolo, bstSolo)
	got, a, b := shared.Snapshot(), slSolo.Snapshot(), bstSolo.Snapshot()

	for class, h := range got.Ops {
		if want := a.Ops[class].Count + b.Ops[class].Count; h.Count != want || want == 0 {
			t.Errorf("%s ops = %d, want %d (both maps)", class, h.Count, want)
		}
	}
	sum := obs.GCSnapshot{
		BundleEntriesPruned: a.GC.BundleEntriesPruned + b.GC.BundleEntriesPruned,
		VcasVersionsPruned:  a.GC.VcasVersionsPruned + b.GC.VcasVersionsPruned,
		LimboRetired:        a.GC.LimboRetired + b.GC.LimboRetired,
		LimboPruned:         a.GC.LimboPruned + b.GC.LimboPruned,
		LimboLen:            a.GC.LimboLen + b.GC.LimboLen,
	}
	if got.GC != sum || sum.VcasVersionsPruned == 0 || sum.LimboRetired == 0 {
		t.Errorf("GC = %+v, want the sum of both maps' %+v", got.GC, sum)
	}
	if want := BST.String() + "/" + VCAS.String(); got.Structure != want || got.Source.Kind != Logical.String() {
		t.Errorf("labels %q / %q, want the BST's %q / %v", got.Structure, got.Source.Kind, want, Logical)
	}
	if got.Pool == nil || got.WAL == nil {
		t.Errorf("pool block %v, WAL block %v: want both, fed by the skip list", got.Pool, got.WAL)
	}
	if len(got.Shards) != 4 || !slices.Equal(got.Shards, a.Shards) {
		t.Errorf("shards = %v, want the skip list's 4 entries %v", got.Shards, a.Shards)
	}
	for i, sh := range got.Shards {
		if sh.Ops == 0 {
			t.Errorf("shard %d served no point operations", i)
		}
	}
	var buf bytes.Buffer
	shared.WriteProm(&buf)
	if _, diags := promparse.Parse(buf.Bytes()); len(diags) > 0 {
		t.Errorf("exposition diagnostics:\n  %s", strings.Join(diags, "\n  "))
	}
}

// TestAlertExpressionsNameServedFamilies reads the alert table of
// EXPERIMENTS.md and the live-view table of the README's telemetry
// section, and requires each row to be there, and to select only series
// and label names that a fully wired /metrics.prom serves: the registry
// with its pool and WAL blocks, plus the TSC health monitor. A label a
// query groups by (by (...)) must be on a series the query selects.
func TestAlertExpressionsNameServedFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Attach(obs.Labels{Structure: "bst/vcas", Source: "Adaptive", Alloc: "Pool", WAL: "sync"}, 0)
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	tsc.NewHealth(8).WriteProm(&buf)
	res, diags := promparse.Parse(buf.Bytes())
	if len(diags) > 0 {
		t.Fatalf("strict parse diagnostics: %v", diags)
	}

	// rows maps each row of the table under heading in file, up to the
	// next heading, from its name to its query.
	rows := func(file, heading string, row *regexp.Regexp) map[string]string {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		_, table, ok := strings.Cut(string(doc), "\n"+heading+"\n")
		if !ok {
			t.Fatalf("%s has no %q section", file, heading)
		}
		table, _, _ = strings.Cut(table, "\n#")
		out := map[string]string{}
		for _, m := range row.FindAllStringSubmatch(table, -1) {
			out[m[1]] = m[2]
		}
		return out
	}
	alerts := rows("EXPERIMENTS.md", "## Alert expressions",
		regexp.MustCompile("(?m)^\\| `([a-z-]+)` \\| (?:critical|warn) \\| (.*) \\|$"))
	live := rows("README.md", "### Telemetry pipeline",
		regexp.MustCompile("(?m)^\\| ([^|`]+) \\| `([^`]+)` \\|$"))

	// series returns the first served sample named name (a histogram's
	// _bucket, _sum or _count included), or nil.
	series := func(name string) *promparse.Sample {
		for _, f := range res.Families {
			for i := range f.Samples {
				if f.Samples[i].Name == name {
					return &f.Samples[i]
				}
			}
		}
		return nil
	}
	family := regexp.MustCompile(`tscds_[a-z_]+`)
	selector := regexp.MustCompile(`(tscds_[a-z_]+)\{([^}]*)\}`)
	matcher := regexp.MustCompile(`([a-z_]+)\s*(?:=~|!~|!=|=)`)
	grouping := regexp.MustCompile(`\bby\s*\(([^)]*)\)`)
	check := func(t *testing.T, table map[string]string, name string) {
		expr, ok := table[name]
		if !ok {
			t.Fatalf("no row for %s in the table", name)
		}
		for _, fam := range family.FindAllString(expr, -1) {
			if series(fam) == nil {
				t.Errorf("%s is not served", fam)
			}
		}
		for _, sel := range selector.FindAllStringSubmatch(expr, -1) {
			s := series(sel[1])
			if s == nil {
				continue // reported above
			}
			for _, lm := range matcher.FindAllStringSubmatch(sel[2], -1) {
				if _, ok := s.Labels[lm[1]]; !ok {
					t.Errorf("%s has no label %q", sel[1], lm[1])
				}
			}
		}
		for _, g := range grouping.FindAllStringSubmatch(expr, -1) {
			for _, l := range strings.Split(g[1], ",") {
				l, found := strings.TrimSpace(l), false
				for _, fam := range family.FindAllString(expr, -1) {
					if s := series(fam); s != nil {
						_, ok := s.Labels[l]
						found = found || ok
					}
				}
				if !found {
					t.Errorf("no series the query selects has the label %q it groups by", l)
				}
			}
		}
	}
	for _, name := range []string{
		"tsc-backstep", "source-degraded", "source-switch",
		"snapshot-retry-spike", "limbo-growth", "wal-error", "pool-hit-collapse",
	} {
		t.Run(name, func(t *testing.T) { check(t, alerts, name) })
	}
	for _, name := range []string{
		"ops/s", "p99 by op class", "advances/s", "TSC state", "TSC backsteps", "limbo", "fsyncs/s",
	} {
		t.Run("live "+name, func(t *testing.T) { check(t, live, name) })
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
