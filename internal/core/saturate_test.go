package core_test

import (
	"testing"

	"tscds"
	"tscds/internal/core"
	"tscds/internal/linearize"
	"tscds/internal/obs"
	"tscds/internal/tsc"
)

// TestAdaptiveSaturates runs an AdaptiveSource out of generations. A
// failback into MaxGen-1 (hardware) is still allowed, since one failover
// is left; the last failover lands on MaxGen, odd, so the source ends in
// logical mode, the always-correct fallback. There the next failover and
// any failback are refused, labels keep increasing across the last switch
// and after it, and SnapshotValid stops sending range queries back. A map
// driven there by real switches then passes a linearizability run with a
// fault injected halfway, which no longer switches it.
func TestAdaptiveSaturates(t *testing.T) {
	h := tsc.NewHealth(2)
	var st obs.SourceStats
	s := core.AdaptiveOver(h, &st)
	s.SetFailbackAfter(8)
	quiet := func() {
		for i := 0; i < 32; i++ {
			s.Snapshot()
		}
	}

	s.SetGeneration(core.MaxGen - 2) // logical: one failback, one failover left
	quiet()
	if g := s.Generation(); g != core.MaxGen-1 {
		t.Fatalf("failback from generation %d reached %d, want %d", core.MaxGen-2, g, core.MaxGen-1)
	}
	before := s.Advance()
	h.InjectBackstep(1 << 30)
	after := s.Advance()
	if core.GenOf(after) != core.MaxGen || !s.Degraded() {
		t.Fatalf("last failover reached generation %d (degraded %v), want %d, logical", core.GenOf(after), s.Degraded(), core.MaxGen)
	}
	if after <= before {
		t.Fatalf("label moved backwards across the last switch: %d -> %d", before, after)
	}

	bound := s.Snapshot()
	prev := after
	h.InjectBackstep(1 << 30) // a failover would have nowhere to go
	for i := 0; i < 64; i++ {
		ts := s.Advance()
		if ts <= prev {
			t.Fatalf("label moved backwards at the top generation: %d -> %d", prev, ts)
		}
		prev = ts
		quiet() // a failback would overflow the generation field
	}
	if g := s.Generation(); g != core.MaxGen {
		t.Fatalf("source left the top generation for %d", g)
	}
	if s.FailoverFrom(core.MaxGen) || s.Generation() != core.MaxGen {
		t.Fatalf("a failover past MaxGen was accepted (generation %d)", s.Generation())
	}
	if !core.SnapshotValid(s, bound) || st.SnapshotRetries.Load() != 0 {
		t.Fatalf("a bound taken at the top generation was invalidated (%d retries)", st.SnapshotRetries.Load())
	}

	// A map's source, driven to the top by real switches: a fault
	// fails it over, DefaultFailbackAfter quiet snapshots fail it back.
	mh := tscds.NewTSCHealth(5)
	m, err := tscds.New(tscds.BST, tscds.VCAS, tscds.Config{Source: tscds.Adaptive, Health: mh, MaxThreads: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; core.GenOf(m.Now()) < core.MaxGen; i++ {
		if i > 2*core.MaxGen {
			t.Fatalf("generation stuck at %d", core.GenOf(m.Now()))
		}
		if core.GenOf(m.Now())%2 == 0 {
			mh.InjectBackstep(1 << 30)
			continue
		}
		for j := 0; j < core.DefaultFailbackAfter; j++ {
			m.Now()
		}
	}
	cfg := linearize.Config{Workers: 4, Ops: 500, Midpoint: func() { mh.InjectBackstep(1 << 30) }}
	if _, err := linearize.RunAndCheck(m, cfg); err != nil {
		t.Fatal(err)
	}
	if g := core.GenOf(m.Now()); g != core.MaxGen {
		t.Fatalf("the map's source left the top generation for %d", g)
	}
}
