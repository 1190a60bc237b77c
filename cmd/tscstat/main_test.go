package main

import (
	"sync"
	"testing"
	"time"

	"tscds"
	"tscds/internal/obs"
	"tscds/internal/obs/series"
	"tscds/internal/tsc"
)

// TestCheckAgainstLiveServer is -check end to end: an adaptive-source map
// under load, with metrics, a flight recorder and a health monitor that
// keeps receiving injected TSC backsteps, served the way `reproduce
// -serve` serves its arms. Every endpoint must satisfy runCheck and the
// backstep must surface on /events as a tsc-backstep watchdog event.
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
	watchdog := obs.NewWatchdog(obs.DefaultRules(), nil)
	collector := series.New(series.Config{
		Interval: 20 * time.Millisecond,
		Metrics:  func() *tscds.Metrics { return reg },
		Health:   func() *tsc.Health { return health },
		Watchdog: watchdog,
	})
	srv, err := obs.Serve("127.0.0.1:0", map[string]obs.Var{
		"metrics": reg, "trace": m.Tracer(), "tschealth": health,
		"series": collector, "events": watchdog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	collector.Start()
	defer collector.Stop()

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

	*addr, *timeout, *wantEv = srv.Addr(), 20*time.Second, "tsc-backstep"
	if code := runCheck(); code != 0 {
		t.Fatalf("runCheck() = %d against a live, loaded server; its FAIL lines are above", code)
	}
}
