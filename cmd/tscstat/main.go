// tscstat is a vmstat-style live dashboard for a tscds process serving
// obs endpoints (reproduce -serve, or any embedder of obs.Serve). Once
// per interval it polls /series and /events and renders ops/s, p50/p99
// latency by op class, timestamp-source health, pool hit rate and WAL
// fsync rate.
//
//	tscstat -addr 127.0.0.1:8090               full-screen ANSI panel
//	tscstat -addr 127.0.0.1:8090 -plain        one line per tick (logs)
//	tscstat -addr 127.0.0.1:8090 -once         single sample, then exit
//	tscstat -addr 127.0.0.1:8090 -check        validate every endpoint
//
// -check is the machine mode (TestCheckAgainstLiveServer drives it against
// an in-process server): it scrapes /metrics.prom and /metrics (with a
// Prometheus Accept header) and runs both through the strict in-repo
// exposition parser, requires /series to carry at least
// one point and /trace?format=chrome to be structurally valid
// trace-event JSON, and — with -want-event — waits for a named watchdog
// rule to appear on /events. Exit status 0 only if everything passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"tscds/internal/obs"
	"tscds/internal/obs/promparse"
	"tscds/internal/obs/series"
)

var (
	addr     = flag.String("addr", "127.0.0.1:8090", "host:port of a live obs.Serve endpoint")
	interval = flag.Duration("interval", time.Second, "poll interval")
	once     = flag.Bool("once", false, "render one sample and exit")
	plain    = flag.Bool("plain", false, "vmstat-style line output instead of the ANSI panel")
	check    = flag.Bool("check", false, "validate every endpoint and exit (CI mode)")
	timeout  = flag.Duration("timeout", 30*time.Second, "overall deadline for -check (retries until the endpoint is up)")
	wantEv   = flag.String("want-event", "", "with -check: require a watchdog event with this rule name on /events")
)

func main() {
	flag.Parse()
	if *check {
		os.Exit(runCheck())
	}
	runDashboard()
}

// ---- HTTP plumbing ----

var client = &http.Client{Timeout: 10 * time.Second}

func get(path string, hdr map[string]string) ([]byte, string, error) {
	req, err := http.NewRequest("GET", "http://"+*addr+path, nil)
	if err != nil {
		return nil, "", err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return body, resp.Header.Get("Content-Type"), fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return body, resp.Header.Get("Content-Type"), nil
}

// seriesPage mirrors the /series JSON shape.
type seriesPage struct {
	IntervalMS int64          `json:"interval_ms"`
	Retention  int            `json:"retention"`
	Points     []series.Point `json:"points"`
}

// eventsPage mirrors the /events JSON shape.
type eventsPage struct {
	Total  uint64      `json:"total"`
	Events []obs.Event `json:"events"`
}

func fetchSeries(last int) (*seriesPage, error) {
	body, _, err := get(fmt.Sprintf("/series?last=%d", last), nil)
	if err != nil {
		return nil, err
	}
	var p seriesPage
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("/series: %v", err)
	}
	return &p, nil
}

func fetchEvents(last int) (*eventsPage, error) {
	body, _, err := get(fmt.Sprintf("/events?last=%d", last), nil)
	if err != nil {
		return nil, err
	}
	var p eventsPage
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("/events: %v", err)
	}
	return &p, nil
}

// ---- dashboard ----

func runDashboard() {
	ticks := 0
	for {
		sp, err := fetchSeries(2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tscstat: %v\n", err)
			if *once {
				os.Exit(1)
			}
			time.Sleep(*interval)
			continue
		}
		ep, _ := fetchEvents(5) // events endpoint is optional
		if *plain {
			renderPlain(sp, ticks)
		} else {
			renderPanel(sp, ep)
		}
		ticks++
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

func latest(sp *seriesPage) *series.Point {
	if sp == nil || len(sp.Points) == 0 {
		return nil
	}
	return &sp.Points[len(sp.Points)-1]
}

func fmtNS(ns uint64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
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

// opOrder keeps the panel rows stable.
var opOrder = []string{"update", "range-query", "contains"}

func renderPanel(sp *seriesPage, ep *eventsPage) {
	p := latest(sp)
	var b strings.Builder
	b.WriteString("\x1b[H\x1b[2J") // home + clear
	fmt.Fprintf(&b, "\x1b[1mtscstat\x1b[0m  %s  interval %dms", *addr, sp.IntervalMS)
	if p == nil {
		b.WriteString("\n\n  (no samples yet)\n")
		os.Stdout.WriteString(b.String())
		return
	}
	if p.Label != "" {
		fmt.Fprintf(&b, "  arm \x1b[1m%s\x1b[0m", p.Label)
	}
	fmt.Fprintf(&b, "  up %s\n\n", (time.Duration(p.ElapsedMS) * time.Millisecond).Truncate(time.Second))

	// Ops table: interval rate + lifetime latency quantiles.
	fmt.Fprintf(&b, "  %-12s %10s %10s %10s %10s %10s\n", "op class", "ops/s", "p50", "p99", "max", "total")
	for _, class := range opOrder {
		hs, ok := p.Metrics.Ops[class]
		if !ok || hs.Count == 0 {
			continue
		}
		rate := "-"
		if p.Rates != nil {
			rate = fmtRate(p.Rates.OpsPerSec[class]) + "/s"
		}
		fmt.Fprintf(&b, "  %-12s %10s %10s %10s %10s %10d\n",
			class, rate, fmtNS(hs.P50NS), fmtNS(hs.P99NS), fmtNS(hs.MaxNS), hs.Count)
	}
	if p.Rates != nil {
		fmt.Fprintf(&b, "  %-12s %10s\n", "all", fmtRate(p.Rates.TotalOpsPerSec)+"/s")
	}

	// Source line.
	src := p.Metrics.Source
	fmt.Fprintf(&b, "\n  source %s", src.Kind)
	if src.Actual != "" && src.Actual != src.Kind {
		fmt.Fprintf(&b, " (actual %s)", src.Actual)
	}
	if p.Rates != nil {
		fmt.Fprintf(&b, "  advances %s/s  snapshots %s/s",
			fmtRate(p.Rates.AdvancesPerSec), fmtRate(p.Rates.SnapshotsPerSec))
		if p.Rates.SnapshotRetriesPerSec > 0 {
			fmt.Fprintf(&b, "  \x1b[33mretries %s/s\x1b[0m", fmtRate(p.Rates.SnapshotRetriesPerSec))
		}
	}
	b.WriteByte('\n')
	if h := p.Health; h != nil {
		color := "\x1b[32m" // green
		if h.State != "healthy" {
			color = "\x1b[31m" // red
		}
		fmt.Fprintf(&b, "  tsc %s%s\x1b[0m  backsteps %d (injected %d)  stalls %d  switches %d/%d\n",
			color, h.State, h.CrossRegressions, h.InjectedFaults, h.SourceStalls,
			h.SourceSwitches, h.SourceFailbacks)
	}

	// Reclamation / pool / WAL.
	fmt.Fprintf(&b, "  limbo %d", p.Metrics.GC.LimboLen)
	if pool := p.Metrics.Pool; pool != nil {
		hitRate := "-"
		if p.Rates != nil && p.Rates.PoolHitRate >= 0 {
			hitRate = fmt.Sprintf("%.1f%%", 100*p.Rates.PoolHitRate)
		}
		fmt.Fprintf(&b, "  pool(%s) hit %s  recycled %d", pool.Mode, hitRate, pool.Recycled)
	}
	if wal := p.Metrics.WAL; wal != nil {
		fmt.Fprintf(&b, "  wal(%s)", wal.Mode)
		if p.Rates != nil {
			fmt.Fprintf(&b, " appends %s/s fsyncs %s/s",
				fmtRate(p.Rates.WALAppendsPerSec), fmtRate(p.Rates.WALFsyncsPerSec))
		}
		if wal.Errors > 0 {
			fmt.Fprintf(&b, "  \x1b[31merrors %d\x1b[0m", wal.Errors)
		}
	}
	b.WriteByte('\n')

	// Recent watchdog events.
	if ep != nil && len(ep.Events) > 0 {
		fmt.Fprintf(&b, "\n  events (%d total):\n", ep.Total)
		for _, ev := range ep.Events {
			color := "\x1b[33m"
			if ev.Severity == obs.SeverityCritical {
				color = "\x1b[31m"
			}
			fmt.Fprintf(&b, "   %s %s[%s] %s\x1b[0m %s\n",
				ev.At.Format("15:04:05"), color, ev.Severity, ev.Rule, ev.Message)
		}
	}
	os.Stdout.WriteString(b.String())
}

// renderPlain emits one vmstat-style line per tick.
func renderPlain(sp *seriesPage, tick int) {
	p := latest(sp)
	if p == nil {
		fmt.Println("(no samples yet)")
		return
	}
	if tick%20 == 0 {
		fmt.Printf("%-8s %10s %10s %10s %10s %9s %8s %8s %8s\n",
			"arm", "ops/s", "upd-p99", "rq-p99", "con-p99", "tsc", "backstep", "limbo", "fsync/s")
	}
	rate, fsync := "-", "-"
	if p.Rates != nil {
		rate = fmtRate(p.Rates.TotalOpsPerSec)
		if p.Metrics.WAL != nil {
			fsync = fmtRate(p.Rates.WALFsyncsPerSec)
		}
	}
	q := func(class string) string {
		if hs, ok := p.Metrics.Ops[class]; ok && hs.Count > 0 {
			return fmtNS(hs.P99NS)
		}
		return "-"
	}
	state, back := "-", uint64(0)
	if p.Health != nil {
		state = p.Health.State
		back = p.Health.CrossRegressions + p.Health.InjectedFaults
	}
	fmt.Printf("%-8s %10s %10s %10s %10s %9s %8d %8d %8s\n",
		p.Label, rate, q("update"), q("range-query"), q("contains"),
		state, back, p.Metrics.GC.LimboLen, fsync)
}

// ---- -check mode ----

func runCheck() int {
	deadline := time.Now().Add(*timeout)
	fails := []string{}
	pass := func(what string) { fmt.Printf("ok   %s\n", what) }
	fail := func(what string, err any) {
		msg := fmt.Sprintf("FAIL %s: %v", what, err)
		fmt.Println(msg)
		fails = append(fails, msg)
	}

	// Wait for the endpoint to come up at all.
	var body []byte
	var err error
	for {
		body, _, err = get("/metrics.prom", nil)
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

	// /metrics with a Prometheus Accept header must negotiate to the
	// text exposition and parse just as strictly.
	nb, ct, err := get("/metrics", map[string]string{"Accept": "text/plain"})
	switch {
	case err != nil:
		fail("/metrics Accept negotiation", err)
	case !strings.HasPrefix(ct, "text/plain"):
		fail("/metrics Accept negotiation", "Content-Type "+ct)
	default:
		if _, d := promparse.Parse(nb); len(d) > 0 {
			fail("/metrics negotiated exposition", strings.Join(d, "; "))
		} else {
			pass("/metrics Accept negotiation")
		}
	}

	// /metrics without the header stays a JSON object.
	jb, _, err := get("/metrics", nil)
	var anyJSON map[string]any
	if err != nil || json.Unmarshal(jb, &anyJSON) != nil {
		fail("/metrics JSON aggregate", err)
	} else {
		pass("/metrics JSON aggregate")
	}

	// /series must be JSON with at least one point (retry — the
	// collector may not have ticked yet).
	var sp *seriesPage
	for {
		sp, err = fetchSeries(0)
		if (err == nil && len(sp.Points) > 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err != nil {
		fail("/series", err)
	} else if len(sp.Points) == 0 {
		fail("/series", "no points within deadline")
	} else {
		pass(fmt.Sprintf("/series (%d points)", len(sp.Points)))
	}

	// /trace?format=chrome must be trace-event JSON. A server running
	// without -trace serves "null" (no recorder); that is a valid
	// deployment, not a telemetry failure.
	tb, _, err := get("/trace?format=chrome", nil)
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

	// /events must be JSON; with -want-event, the named rule must fire
	// before the deadline.
	var ep *eventsPage
	for {
		ep, err = fetchEvents(0)
		if err == nil && *wantEv != "" && !hasRule(ep, *wantEv) && !time.Now().After(deadline) {
			time.Sleep(200 * time.Millisecond)
			continue
		}
		break
	}
	if err != nil {
		fail("/events", err)
	} else if *wantEv != "" && !hasRule(ep, *wantEv) {
		rules := map[string]bool{}
		for _, ev := range ep.Events {
			rules[ev.Rule] = true
		}
		seen := make([]string, 0, len(rules))
		for r := range rules {
			seen = append(seen, r)
		}
		sort.Strings(seen)
		fail("/events", fmt.Sprintf("rule %q never fired (saw %v)", *wantEv, seen))
	} else {
		pass(fmt.Sprintf("/events (%d events)", len(ep.Events)))
	}

	if len(fails) > 0 {
		fmt.Printf("tscstat -check: %d failure(s)\n", len(fails))
		return 1
	}
	fmt.Println("tscstat -check: all endpoints valid")
	return 0
}

func hasRule(ep *eventsPage, rule string) bool {
	if ep == nil {
		return false
	}
	for _, ev := range ep.Events {
		if ev.Rule == rule {
			return true
		}
	}
	return false
}
