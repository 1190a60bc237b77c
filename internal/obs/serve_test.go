package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
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
	reg.Attach(Labels{Source: "Logical"}, 0)
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

// TestStringIsLive: String renders the registry's current Snapshot on
// every call, so a counter moved between two calls shows in the second.
func TestStringIsLive(t *testing.T) {
	reg := NewRegistry()
	for want := uint64(1); want <= 3; want++ {
		reg.ObserveOp(0, OpUpdate, uint64(time.Microsecond))
		var snap Snapshot
		if err := json.Unmarshal([]byte(reg.String()), &snap); err != nil {
			t.Fatal(err)
		}
		if got := snap.Ops["update"].Count; got != want {
			t.Fatalf("String after %d updates reads count %d", want, got)
		}
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
