package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// varFunc adapts a function to Var.
type varFunc func() string

func (f varFunc) String() string { return f() }

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.SetSourceKind("Logical")
	reg.ObserveOp(0, OpUpdate, uint64(100*time.Nanosecond))

	srv, err := Serve("127.0.0.1:0", map[string]Var{
		"metrics":   reg,
		"tschealth": varFunc(func() string { return `{"state":"healthy"}` }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// /metrics: one JSON object keyed by var name.
	var all map[string]json.RawMessage
	if err := json.Unmarshal(get(t, "http://"+srv.Addr()+"/metrics"), &all); err != nil {
		t.Fatalf("/metrics JSON: %v", err)
	}
	if _, ok := all["metrics"]; !ok {
		t.Fatal("/metrics missing registry var")
	}
	var snap Snapshot
	if err := json.Unmarshal(all["metrics"], &snap); err != nil {
		t.Fatalf("registry var JSON: %v", err)
	}
	if snap.Source.Kind != "Logical" {
		t.Fatalf("served kind = %q", snap.Source.Kind)
	}

	// Per-var routes.
	var health map[string]string
	if err := json.Unmarshal(get(t, "http://"+srv.Addr()+"/tschealth"), &health); err != nil {
		t.Fatalf("/tschealth JSON: %v", err)
	}
	if health["state"] != "healthy" {
		t.Fatalf("health = %v", health)
	}
}

// TestCloseDrainsInflightScrape: Close must let a scrape that is
// already rendering finish instead of slamming the connection —
// stopping an endpoint mid-scrape used to hand collectors truncated
// JSON bodies.
func TestCloseDrainsInflightScrape(t *testing.T) {
	entered := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", map[string]Var{
		"slow": varFunc(func() string {
			close(entered)
			time.Sleep(150 * time.Millisecond)
			return `{"done":true}`
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/slow")
		if err != nil {
			got <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{b, err}
	}()

	<-entered // the scrape is mid-render
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight scrape broken by Close: %v", r.err)
	}
	if !strings.Contains(string(r.body), `"done":true`) {
		t.Fatalf("in-flight scrape truncated: %q", r.body)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:99999", nil); err == nil {
		t.Fatal("expected error for bad listen addr")
	}
}

// TestStringMemoized: within stringTTL the rendered JSON is reused even
// if counters move; after the TTL the next render picks up new values.
func TestStringMemoized(t *testing.T) {
	old := stringTTL
	stringTTL = time.Hour
	defer func() { stringTTL = old }()

	reg := NewRegistry()
	reg.ObserveOp(0, OpUpdate, uint64(time.Microsecond))
	first := reg.String()
	reg.ObserveOp(0, OpUpdate, uint64(time.Microsecond))
	if got := reg.String(); got != first {
		t.Fatal("String re-marshaled within TTL")
	}

	stringTTL = 0 // every call is stale
	reg.ObserveOp(0, OpUpdate, uint64(time.Microsecond))
	var snap Snapshot
	if err := json.Unmarshal([]byte(reg.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Ops["update"].Count != 3 {
		t.Fatalf("post-TTL count = %d, want 3", snap.Ops["update"].Count)
	}
}

func TestSnapshotSummary(t *testing.T) {
	reg := NewRegistry()
	reg.SetSourceKind("RDTSCP")
	reg.ObserveOp(0, OpRange, uint64(3*time.Microsecond))
	reg.Source.Snapshots.Inc()
	reg.GC.LimboRetired.Inc()
	out := reg.Snapshot().Summary()
	for _, want := range []string{"range-query", "p50", "p99", "RDTSCP", "limbo retired"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Summary missing %q:\n%s", want, out)
		}
	}
	if empty := (Snapshot{}).Summary(); !strings.Contains(empty, "no activity") {
		t.Fatalf("empty summary = %q", empty)
	}
}

// getFull returns body and status without failing on non-200 statuses.
func getFull(t *testing.T, url string) ([]byte, int) {
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
	return b, resp.StatusCode
}

// A Var whose String() panics must yield a clean 500, not a truncated
// 200 body — and must not take the server down for later requests.
func TestServePanickingVar(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", map[string]Var{
		"metrics": reg,
		"broken":  varFunc(func() string { panic("render exploded") }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body, status := getFull(t, "http://"+srv.Addr()+"/broken")
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking var status = %d, want 500", status)
	}
	if !strings.Contains(string(body), "render exploded") {
		t.Fatalf("500 body = %q", body)
	}

	// The aggregate route renders the panicking var too: same contract.
	_, status = getFull(t, "http://"+srv.Addr()+"/metrics")
	if status != http.StatusInternalServerError {
		t.Fatalf("/metrics with panicking var status = %d, want 500", status)
	}

	// The server survives; a healthy route still works.
	got := get(t, "http://"+srv.Addr()+"/metrics.prom")
	if !strings.Contains(string(got), "tscds_ops_total") {
		t.Fatalf("/metrics.prom after panic = %q", got)
	}
}

func TestServe404ListsRoutes(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", map[string]Var{
		"metrics":   NewRegistry(),
		"tschealth": varFunc(func() string { return "{}" }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body, status := getFull(t, "http://"+srv.Addr()+"/nope")
	if status != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", status)
	}
	for _, want := range []string{"/metrics", "/metrics.prom", "/tschealth"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("404 listing missing %s:\n%s", want, body)
		}
	}
}

// Live re-resolves its getter per use and forwards capabilities; a nil
// current value renders as null without panicking.
func TestLiveVar(t *testing.T) {
	var curP atomic.Pointer[Var] // written here, read by server handlers
	cur := func(v Var) {
		if v == nil {
			curP.Store(nil)
			return
		}
		curP.Store(&v)
	}
	live := Live(func() Var {
		if p := curP.Load(); p != nil {
			return *p
		}
		return nil
	})
	if got := live.String(); got != "null" {
		t.Fatalf("nil live String = %q", got)
	}
	var sb strings.Builder
	live.(PromVar).WriteProm(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil live WriteProm wrote %q", sb.String())
	}

	reg := NewRegistry()
	reg.ObserveOp(0, OpUpdate, uint64(time.Microsecond))
	cur(reg)
	if !strings.Contains(live.String(), `"update"`) {
		t.Fatal("live String did not track the swapped-in registry")
	}
	sb.Reset()
	live.(PromVar).WriteProm(&sb)
	if !strings.Contains(sb.String(), "tscds_ops_total") {
		t.Fatal("live WriteProm did not forward to the registry")
	}

	// Through Serve: the exposition follows the getter across swaps.
	srv, err := Serve("127.0.0.1:0", map[string]Var{"metrics": live})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg2 := NewRegistry()
	reg2.SetStructure("swapped/arm")
	reg2.ObserveOp(0, OpRange, uint64(time.Microsecond))
	cur(reg2)
	if got := string(get(t, "http://"+srv.Addr()+"/metrics.prom")); !strings.Contains(got, `structure="swapped/arm"`) {
		t.Fatalf("exposition did not follow the live swap:\n%s", got)
	}
}
