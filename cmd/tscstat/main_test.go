package main

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"tscds"
	"tscds/internal/obs"
	"tscds/internal/obs/promparse"
	"tscds/internal/tsc"
)

// TestCheckAgainstLiveServer is -check end to end: an adaptive-source map
// under load, with metrics, a flight recorder and a health monitor that
// keeps receiving injected TSC backsteps, served the way `reproduce
// -serve` serves its arms. Every endpoint must satisfy runCheck, and the
// injected backsteps must show on both /metrics.prom and /tschealth.
func TestCheckAgainstLiveServer(t *testing.T) {
	health := tscds.NewTSCHealth(8)
	reg := tscds.NewMetrics()
	m, err := tscds.New(tscds.BST, tscds.VCAS, tscds.Config{
		Source: tscds.Adaptive, Health: health, MaxThreads: 8,
		Metrics: reg, Trace: &tscds.TraceConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := obs.Serve("127.0.0.1:0", map[string]obs.Var{
		"metrics": reg, "trace": m.Tracer(), "tschealth": health,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var load sync.WaitGroup
	load.Add(1)
	go func() {
		defer load.Done()
		th, err := m.RegisterThread()
		if err != nil {
			t.Error(err)
			return
		}
		defer th.Release()
		for k := uint64(0); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Insert(th, k%512, k)
			m.RangeQuery(th, k%512, k%512+50, nil)
			m.Delete(th, (k+256)%512)
			health.Sample(th.ID)
			if k%1024 == 0 {
				health.InjectBackstep(uint64(time.Hour))
			}
		}
	}()
	defer load.Wait()
	defer close(stop)

	*addr, *timeout = srv.Addr(), 20*time.Second
	if code := runCheck(); code != 0 {
		t.Fatalf("runCheck() = %d against a live, loaded server; its FAIL lines are above", code)
	}

	// The first backstep is injected as the load starts; wait for it.
	var prom, faults float64
	for deadline := time.Now().Add(*timeout); prom == 0 || faults == 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("injected backsteps: tscds_tsc_injected_faults_total %v, /tschealth injected_faults %v; want both > 0", prom, faults)
		}
		body, err := get("/metrics.prom")
		if err != nil {
			t.Fatal(err)
		}
		res, _ := promparse.Parse(body)
		prom, _ = res.Value("tscds_tsc_injected_faults_total", nil)
		if body, err = get("/tschealth"); err != nil {
			t.Fatal(err)
		}
		var h struct {
			InjectedFaults float64 `json:"injected_faults"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		faults = h.InjectedFaults
	}
}

// TestRatesFromTwoScrapes: rates are deltas over the interval between two
// scrapes of one registry, and are dropped when a counter went backwards
// or the structure or source label changed.
func TestRatesFromTwoScrapes(t *testing.T) {
	scrape := func(sec int, structure string, updates, advances, fsyncs uint64) sample {
		return sample{at: time.Unix(int64(100+sec), 0), Metrics: &obs.Snapshot{
			Structure: structure,
			Source:    obs.SourceSnapshot{Kind: "RDTSCP", Advances: advances},
			Ops:       map[string]obs.HistSnapshot{"update": {Count: updates}, "contains": {Count: 2 * updates}},
			WAL:       &obs.WALSnapshot{Fsyncs: fsyncs},
		}}
	}
	first := scrape(0, "bst/vcas", 1000, 500, 10)
	second := scrape(2, "bst/vcas", 3000, 900, 30)
	if r, ok := rateOf(first, second); !ok || r != (rates{ops: 3000, advances: 200, fsyncs: 10}) {
		t.Fatalf("rateOf(first, second) = %+v, %v; want {ops:3000 advances:200 fsyncs:10}, true", r, ok)
	}
	if l := line(first, second); !strings.Contains(l, "3.0k") || !strings.Contains(l, "bst/vcas") {
		t.Fatalf("line lacks the ops rate or the structure:\n%s\n%s", header, l)
	}
	otherSource := scrape(2, "bst/vcas", 3000, 900, 30)
	otherSource.Metrics.Source.Kind = "Logical"
	for _, tc := range []struct {
		name      string
		prev, cur sample
	}{
		{"counter reset", first, scrape(2, "bst/vcas", 3000, 100, 30)},
		{"label change", first, scrape(2, "citrus/ebrrq", 3000, 900, 30)},
		{"source change", first, otherSource},
		{"no time passed", first, scrape(0, "bst/vcas", 3000, 900, 30)},
		{"first scrape", sample{}, first},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if r, ok := rateOf(tc.prev, tc.cur); ok {
				t.Errorf("rateOf = %+v, true; want no rate", r)
			}
		})
	}
}

// TestLine: a row takes its gauges, p99s and health from the current
// scrape and its rates from the pair; a column with nothing to show
// reads "-".
func TestLine(t *testing.T) {
	prev := sample{at: time.Unix(100, 0), Metrics: &obs.Snapshot{
		Structure: "bst/vcas",
		Ops:       map[string]obs.HistSnapshot{"update": {Count: 1000}},
		WAL:       &obs.WALSnapshot{Fsyncs: 10},
	}}
	cur := sample{at: time.Unix(101, 0), Metrics: &obs.Snapshot{
		Structure: "bst/vcas",
		Source:    obs.SourceSnapshot{Advances: 2_500_000},
		Ops:       map[string]obs.HistSnapshot{"update": {Count: 3000, P99NS: 1500}},
		GC:        obs.GCSnapshot{LimboLen: 42},
		WAL:       &obs.WALSnapshot{Fsyncs: 30},
	}}
	noWAL := cur
	noWAL.Metrics = &obs.Snapshot{Structure: "bst/vcas", Ops: cur.Metrics.Ops}
	healthy := cur
	healthy.Health = &tsc.HealthSnapshot{State: "degraded", CrossRegressions: 2, InjectedFaults: 3}

	for _, tc := range []struct {
		name      string
		prev, cur sample
		want      map[string]string // header column -> cell
	}{
		{"rates and gauges", prev, cur, map[string]string{
			"structure": "bst/vcas", "ops/s": "2.0k", "upd-p99": "1.50µs", "rq-p99": "-",
			"adv/s": "2.50M", "tsc": "-", "backstep": "0", "limbo": "42", "fsync/s": "20",
		}},
		{"no previous scrape", sample{}, cur, map[string]string{
			"ops/s": "-", "adv/s": "-", "fsync/s": "-", "upd-p99": "1.50µs", "limbo": "42",
		}},
		{"no WAL", prev, noWAL, map[string]string{"ops/s": "2.0k", "fsync/s": "-"}},
		{"health", prev, healthy, map[string]string{"tsc": "degraded", "backstep": "5"}},
		{"no registry", prev, sample{at: cur.at}, map[string]string{
			"structure": "(none)", "ops/s": "-", "upd-p99": "-", "limbo": "0",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := line(tc.prev, tc.cur)
			heads, cells := strings.Fields(header), strings.Fields(l)
			if len(cells) != len(heads) {
				t.Fatalf("%d cells under %d columns:\n%s\n%s", len(cells), len(heads), header, l)
			}
			for i, h := range heads {
				if want, ok := tc.want[h]; ok && cells[i] != want {
					t.Errorf("%s = %q, want %q", h, cells[i], want)
				}
			}
		})
	}
}
