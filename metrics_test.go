package tscds

import (
	"encoding/json"
	"fmt"
	"testing"
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
