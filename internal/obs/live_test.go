package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tscds"
	"tscds/internal/obs"
	"tscds/internal/obs/promparse"
	"tscds/internal/obs/trace"
	"tscds/internal/tsc"
)

// fetch GETs url and fails the test unless it answers 200.
func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// Live re-resolves its getter per use and forwards capabilities; a nil
// current value renders as null without panicking, and a nil pointer of
// any type the benchmark drivers serve is served like any other value.
func TestLiveVar(t *testing.T) {
	var curP atomic.Pointer[obs.Var] // written here, read by server handlers
	cur := func(v obs.Var) {
		if v == nil {
			curP.Store(nil)
			return
		}
		curP.Store(&v)
	}
	live := obs.Live(func() obs.Var {
		if p := curP.Load(); p != nil {
			return *p
		}
		return nil
	})
	if got := live.String(); got != "null" {
		t.Fatalf("nil live String = %q", got)
	}
	var sb strings.Builder
	live.(obs.PromVar).WriteProm(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil live WriteProm wrote %q", sb.String())
	}

	reg := obs.NewRegistry()
	reg.ObserveOp(0, obs.OpUpdate, uint64(time.Microsecond))
	cur(reg)
	if !strings.Contains(live.String(), `"update"`) {
		t.Fatal("live String did not track the swapped-in registry")
	}
	sb.Reset()
	live.(obs.PromVar).WriteProm(&sb)
	if !strings.Contains(sb.String(), "tscds_ops_total") {
		t.Fatal("live WriteProm did not forward to the registry")
	}

	// Through Serve: the exposition follows the getter across swaps.
	srv, err := obs.Serve("127.0.0.1:0", map[string]obs.Var{"metrics": live})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg2 := obs.NewRegistry()
	reg2.Attach(obs.Labels{Structure: "swapped/arm"}, 0)
	reg2.ObserveOp(0, obs.OpRange, uint64(time.Microsecond))
	cur(reg2)
	if got := string(fetch(t, "http://"+srv.Addr()+"/metrics.prom")); !strings.Contains(got, `structure="swapped/arm"`) {
		t.Fatalf("exposition did not follow the live swap:\n%s", got)
	}

	// A getter that returns a nil pointer (an arm without metrics, without
	// a recorder) must leave every route of the server serving.
	for _, row := range []struct {
		name string
		v    obs.Var
	}{
		{"registry", (*obs.Registry)(nil)},
		{"recorder", (*trace.Recorder)(nil)},
		{"health", (*tsc.Health)(nil)},
	} {
		t.Run("nil "+row.name, func(t *testing.T) {
			srv, err := obs.Serve("127.0.0.1:0", map[string]obs.Var{
				row.name: obs.Live(func() obs.Var { return row.v }),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var all map[string]json.RawMessage
			if err := json.Unmarshal(fetch(t, "http://"+srv.Addr()+"/metrics"), &all); err != nil {
				t.Errorf("/metrics: %v", err)
			}
			fetch(t, "http://"+srv.Addr()+"/metrics.prom")
			if body := fetch(t, "http://"+srv.Addr()+"/"+row.name); !json.Valid(body) {
				t.Errorf("/%s is not JSON: %q", row.name, body)
			}
		})
	}
}

// TestCheckAgainstLiveServer serves an adaptive-source map under load,
// with metrics, a flight recorder and a health monitor that keeps
// receiving injected TSC backsteps, the way `reproduce -serve` serves its
// arms, and checks every endpoint: /metrics.prom strict-parses and holds
// the op and source families, /metrics holds the registry,
// /trace?format=chrome is trace-event JSON, and the injected backsteps
// show on both /metrics.prom and /tschealth.
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
	base := "http://" + srv.Addr()

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

	res, diags := promparse.Parse(fetch(t, base+"/metrics.prom"))
	if len(diags) > 0 {
		t.Errorf("/metrics.prom strict parse:\n  %s", strings.Join(diags, "\n  "))
	}
	for _, fam := range []string{"tscds_ops_total", "tscds_op_latency_ns", "tscds_source_advances_total"} {
		if res.Family(fam) == nil {
			t.Errorf("family %s absent from /metrics.prom", fam)
		}
	}

	var all struct {
		Metrics *obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(fetch(t, base+"/metrics"), &all); err != nil {
		t.Errorf("/metrics: %v", err)
	} else if all.Metrics == nil {
		t.Error(`/metrics holds no registry under "metrics"`)
	}

	var chrome struct {
		TraceEvents *[]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(fetch(t, base+"/trace?format=chrome"), &chrome); err != nil || chrome.TraceEvents == nil {
		t.Errorf("/trace?format=chrome holds no traceEvents array (%v)", err)
	}

	// The first backstep is injected as the load starts; wait for it.
	var prom, faults float64
	for deadline := time.Now().Add(20 * time.Second); prom == 0 || faults == 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("injected backsteps: tscds_tsc_injected_faults_total %v, /tschealth injected_faults %v; want both > 0", prom, faults)
		}
		res, _ := promparse.Parse(fetch(t, base+"/metrics.prom"))
		prom, _ = res.Value("tscds_tsc_injected_faults_total", nil)
		var h struct {
			InjectedFaults float64 `json:"injected_faults"`
		}
		if err := json.Unmarshal(fetch(t, base+"/tschealth"), &h); err != nil {
			t.Fatal(err)
		}
		faults = h.InjectedFaults
	}
}
