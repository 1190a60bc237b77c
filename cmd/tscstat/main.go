// tscstat is a vmstat-style live view of a tscds process serving obs
// endpoints (reproduce -serve, or any embedder of obs.Serve). Once per
// interval it makes one GET of /metrics, which holds the registry and the
// TSC health monitor in one JSON object, and prints one line: ops/s and
// timestamp advances/s against the previous scrape, p99 latency by op
// class, the TSC health state and backsteps, the limbo population and the
// WAL fsync rate.
//
//	tscstat -addr 127.0.0.1:8090          one line per interval
//	tscstat -addr 127.0.0.1:8090 -once    one line over one interval, then exit
//	tscstat -addr 127.0.0.1:8090 -check   validate every endpoint
//
// -check is the machine mode (TestCheckAgainstLiveServer drives it against
// an in-process server): it runs /metrics.prom through the strict in-repo
// exposition parser, requires /metrics to decode with a registry in it and
// /trace?format=chrome to be structurally valid trace-event JSON. Exit
// status 0 only if everything passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"tscds/internal/obs"
	"tscds/internal/obs/promparse"
	"tscds/internal/tsc"
)

var (
	addr     = flag.String("addr", "127.0.0.1:8090", "host:port of a live obs.Serve endpoint")
	interval = flag.Duration("interval", time.Second, "poll interval")
	once     = flag.Bool("once", false, "print one line over one interval and exit")
	check    = flag.Bool("check", false, "validate every endpoint and exit (CI mode)")
	timeout  = flag.Duration("timeout", 30*time.Second, "overall deadline for -check (retries until the endpoint is up)")
)

func main() {
	flag.Parse()
	if *check {
		os.Exit(runCheck())
	}
	watch()
}

var client = &http.Client{Timeout: 10 * time.Second}

func get(path string) ([]byte, error) {
	resp, err := client.Get("http://" + *addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}

// sample is one scrape of /metrics: the registry served as "metrics" and
// the health monitor served as "tschealth" (either is nil when absent).
type sample struct {
	at      time.Time
	Metrics *obs.Snapshot       `json:"metrics"`
	Health  *tsc.HealthSnapshot `json:"tschealth"`
}

func scrape() (sample, error) {
	s := sample{at: time.Now()}
	body, err := get("/metrics")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return s, fmt.Errorf("/metrics: %v", err)
	}
	return s, nil
}

// rates are one scrape's per-second rates over the previous one.
type rates struct{ ops, advances, fsyncs float64 }

// rateOf returns cur's rates over prev, or false unless both are scrapes
// of one registry: a changed structure or source label, or a counter that
// went backwards, means the endpoint now serves another arm.
func rateOf(prev, cur sample) (rates, bool) {
	p, c := prev.Metrics, cur.Metrics
	dt := cur.at.Sub(prev.at).Seconds()
	if p == nil || c == nil || dt <= 0 || p.Structure != c.Structure || p.Source.Kind != c.Source.Kind {
		return rates{}, false
	}
	ok := true
	per := func(cur, prev uint64) float64 {
		if cur < prev {
			ok = false
			return 0
		}
		return float64(cur-prev) / dt
	}
	var r rates
	for class, h := range c.Ops {
		r.ops += per(h.Count, p.Ops[class].Count)
	}
	r.advances = per(c.Source.Advances, p.Source.Advances)
	if c.WAL != nil && p.WAL != nil {
		r.fsyncs = per(c.WAL.Fsyncs, p.WAL.Fsyncs)
	}
	return r, ok
}

// columns lays out one row, and the header in the same widths.
const columns = "%-20s %10s %10s %10s %10s %8s %9s %8v %8v %8s"

var header = fmt.Sprintf(columns, "structure", "ops/s", "upd-p99", "rq-p99", "con-p99",
	"adv/s", "tsc", "backstep", "limbo", "fsync/s")

// line renders cur as one row under header, with rates over prev.
func line(prev, cur sample) string {
	m := cur.Metrics
	if m == nil {
		m = &obs.Snapshot{Structure: "(none)"}
	}
	ops, adv, fsync := "-", "-", "-"
	if r, ok := rateOf(prev, cur); ok {
		ops, adv = fmtRate(r.ops), fmtRate(r.advances)
		if m.WAL != nil {
			fsync = fmtRate(r.fsyncs)
		}
	}
	p99 := func(class string) string {
		if h := m.Ops[class]; h.Count > 0 {
			return obs.FormatNS(float64(h.P99NS))
		}
		return "-"
	}
	state, back := "-", uint64(0)
	if h := cur.Health; h != nil {
		state, back = h.State, h.CrossRegressions+h.InjectedFaults
	}
	return fmt.Sprintf(columns, m.Structure, ops, p99("update"), p99("range-query"), p99("contains"),
		adv, state, back, m.GC.LimboLen, fsync)
}

func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// watch prints one line per interval, the column heads every 20 lines.
func watch() {
	prev, err := scrape()
	for rows := 0; ; {
		if err != nil {
			fmt.Fprintf(os.Stderr, "tscstat: %v\n", err)
			if *once {
				os.Exit(1)
			}
		}
		time.Sleep(*interval)
		var cur sample
		if cur, err = scrape(); err != nil {
			continue
		}
		if rows%20 == 0 {
			fmt.Println(header)
		}
		fmt.Println(line(prev, cur))
		rows++
		prev = cur
		if *once {
			return
		}
	}
}

// ---- -check mode ----

func runCheck() int {
	deadline := time.Now().Add(*timeout)
	fails := 0
	pass := func(what string) { fmt.Printf("ok   %s\n", what) }
	fail := func(what string, err any) {
		fmt.Printf("FAIL %s: %v\n", what, err)
		fails++
	}

	// Wait for the endpoint to come up at all.
	var body []byte
	var err error
	for {
		body, err = get("/metrics.prom")
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err != nil {
		fail("/metrics.prom reachable", err)
		return 1
	}

	// /metrics.prom must satisfy the strict parser with zero diagnostics.
	res, diags := promparse.Parse(body)
	if len(diags) > 0 {
		fail("/metrics.prom strict parse", strings.Join(diags, "; "))
	} else {
		pass(fmt.Sprintf("/metrics.prom strict parse (%d families)", len(res.Families)))
	}
	for _, fam := range []string{"tscds_ops_total", "tscds_op_latency_ns", "tscds_source_advances_total"} {
		if res.Family(fam) == nil {
			fail("family "+fam, "absent from /metrics.prom")
		} else {
			pass("family " + fam)
		}
	}

	// /metrics is one JSON object holding the registry.
	switch s, err := scrape(); {
	case err != nil:
		fail("/metrics JSON aggregate", err)
	case s.Metrics == nil:
		fail("/metrics JSON aggregate", `no registry under "metrics"`)
	default:
		pass("/metrics JSON aggregate")
	}

	// /trace?format=chrome must be trace-event JSON. A server running
	// without -trace serves "null" (no recorder); that is a valid
	// deployment, not a telemetry failure.
	tb, err := get("/trace?format=chrome")
	if err != nil {
		fail("/trace?format=chrome", err)
	} else if strings.TrimSpace(string(tb)) == "null" {
		pass("/trace (tracing disabled)")
	} else {
		var tr struct {
			TraceEvents *[]map[string]any `json:"traceEvents"`
		}
		if json.Unmarshal(tb, &tr) != nil || tr.TraceEvents == nil {
			fail("/trace?format=chrome", "missing traceEvents array")
		} else {
			pass(fmt.Sprintf("/trace?format=chrome (%d events)", len(*tr.TraceEvents)))
		}
	}

	if fails > 0 {
		fmt.Printf("tscstat -check: %d failure(s)\n", fails)
		return 1
	}
	fmt.Println("tscstat -check: all endpoints valid")
	return 0
}
