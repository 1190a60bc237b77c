package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"tscds/internal/obs"
	"tscds/internal/obs/trace"
)

// run dispatches each subcommand to the code behind it, and refuses what
// it does not know, without exiting the process.
func TestRunDispatch(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // substring of the output; "" = must fail
	}{
		{[]string{"fig", "lazy", "-mode", "sim"}, "Figure La  (workload 10-10-80)"},
		{[]string{"fig", "lazy", "-mode", "sim", "-format", "csv"}, "threads,vCAS,vCAS-RDTSCP,Bundle,Bundle-RDTSCP"},
		{[]string{"fig", "lazy", "-threads", "1", "-duration", "20ms", "-trials", "2"}, "Figure lazy, workload 10-10-80, native (2 trials x 20ms)"},
		{[]string{"fig", "5", "-threads", "1", "-duration", "20ms", "-trials", "1", "-keyrange", "2000", "-arm", "citrus/vcas"}, "citrus/vcas-RDTSCP"},
		{[]string{"fig"}, ""},
		{[]string{"fig", "6"}, ""},
		{[]string{"fig", "2", "-mode", "sim", "-arm", "bst/vcas"}, ""},
		{[]string{"fig", "2", "-mode", "emulated"}, ""},
		{[]string{"fig", "1", "-arm", "bst/vcas"}, ""},
		{[]string{"fig", "2", "-arm", "bst/locks"}, ""},
		{[]string{"fig", "2", "-threads", "0"}, ""},
		{[]string{"rqbench"}, ""},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("reproduce %v succeeded, want an error", c.args)
		case c.want != "" && err != nil:
			t.Errorf("reproduce %v: %v", c.args, err)
		case !strings.Contains(out.String(), c.want):
			t.Errorf("reproduce %v: output lacks %q:\n%s", c.args, c.want, out.String())
		}
	}
}

// With -metrics and -trace every arm prints one JSON line per sink:
// "metrics <arm>: {…}" and "trace <arm>: {…}".
func TestArmPrintsOneJSONLinePerSink(t *testing.T) {
	var out bytes.Buffer
	args := []string{"fig", "lazy", "-threads", "1", "-duration", "20ms", "-trials", "1", "-metrics", "-trace"}
	if err := run(args, &out); err != nil {
		t.Fatalf("reproduce %v: %v", args, err)
	}
	lines := map[string]int{}
	for _, l := range strings.Split(out.String(), "\n") {
		sink, rest, _ := strings.Cut(l, " ")
		if sink != "metrics" && sink != "trace" {
			continue
		}
		_, payload, ok := strings.Cut(rest, ": ")
		if !ok || !json.Valid([]byte(payload)) {
			t.Errorf("%s line is not \"<arm>: <json>\": %q", sink, l)
		}
		lines[sink]++
	}
	// Figure lazy has two arms, each run on two sources.
	if lines["metrics"] != 4 || lines["trace"] != 4 {
		t.Errorf("%d metrics and %d trace lines, want 4 of each:\n%s", lines["metrics"], lines["trace"], out.String())
	}
}

// The metrics and trace lines are the run's only rendering of its sinks,
// so they must hold the numbers: each arm's ops with their latency
// quantiles, and its traced ops and phases.
func TestArmJSONLinesHoldTheNumbers(t *testing.T) {
	var out bytes.Buffer
	args := []string{"fig", "lazy", "-threads", "1", "-duration", "20ms", "-trials", "1", "-metrics", "-trace"}
	if err := run(args, &out); err != nil {
		t.Fatalf("reproduce %v: %v", args, err)
	}
	var metrics, traces int
	for _, l := range strings.Split(out.String(), "\n") {
		sink, rest, _ := strings.Cut(l, " ")
		label, payload, _ := strings.Cut(rest, ": ")
		switch sink {
		case "metrics":
			metrics++
			var s obs.Snapshot
			if err := json.Unmarshal([]byte(payload), &s); err != nil {
				t.Fatalf("metrics %s: %v", label, err)
			}
			var ops uint64
			for _, h := range s.Ops {
				ops += h.Count
				if h.Count > 0 && h.P99NS == 0 {
					t.Errorf("metrics %s: %d ops with no p99", label, h.Count)
				}
			}
			if ops == 0 {
				t.Errorf("metrics %s: no ops counted", label)
			}
		case "trace":
			traces++
			var s trace.Snapshot
			if err := json.Unmarshal([]byte(payload), &s); err != nil {
				t.Fatalf("trace %s: %v", label, err)
			}
			if s.Recorded == 0 || len(s.Ops) == 0 || len(s.Phases) == 0 {
				t.Errorf("trace %s: %d events, %d ops, %d phases; want all > 0", label, s.Recorded, len(s.Ops), len(s.Phases))
			}
		}
	}
	if metrics == 0 || traces == 0 {
		t.Fatalf("%d metrics and %d trace lines:\n%s", metrics, traces, out.String())
	}
}

// Before the first arm runs, the -serve endpoint's metrics and trace
// getters return nil pointers; every route must still answer 200.
func TestServeBeforeFirstArm(t *testing.T) {
	var out bytes.Buffer
	n, err := newNative(&out, &options{threads: "1", serve: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	_, addr, ok := strings.Cut(out.String(), "serving stats on ")
	if !ok {
		t.Fatalf("no serving line:\n%s", out.String())
	}
	base := strings.TrimSuffix(strings.TrimSpace(addr), "/metrics")
	for _, route := range []string{"/metrics", "/metrics.prom", "/trace", "/trace?format=chrome", "/tschealth"} {
		resp, err := http.Get(base + route)
		if err != nil {
			t.Fatalf("GET %s: %v", route, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", route, resp.StatusCode, body)
		}
	}
}
