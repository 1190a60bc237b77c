package trace

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tscds/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenSnapshot is a deterministic, hand-built ring covering every
// event kind across two threads. AtNS values are chosen so the span and
// op-end start-time arithmetic (at - dur) is visible in the output.
func goldenSnapshot() Snapshot {
	return Snapshot{
		DurationNS: 5000,
		RingSize:   16,
		Threads:    2,
		Recorded:   4,
		Events: []Event{
			{Thread: 0, Seq: 2, AtNS: 1750, Kind: "op-end", Op: "update", Value: 750},
			{Thread: 0, Seq: 3, AtNS: 2000, Kind: "count", Phase: "rq-restart", Value: 3},
			{Thread: 1, Seq: 4, AtNS: 2500, Kind: "span", Phase: "snapshot-acquire", Value: 400},
			// Value > AtNS: the start-time subtraction must clamp to 0.
			{Thread: 1, Seq: 6, AtNS: 3100, Kind: "op-end", Op: "range-query", Value: 9000},
		},
	}
}

func TestChromeTraceGolden(t *testing.T) {
	got := goldenSnapshot().ChromeTrace()
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs/trace -run Golden -update` to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("chrome trace drifted from golden file (regenerate with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// Structural checks on the same snapshot, independent of the golden
// bytes: phases, lane metadata, and the ts/dur microsecond arithmetic.
func TestChromeTraceStructure(t *testing.T) {
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(goldenSnapshot().ChromeTrace(), &tr); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}

	byPhase := map[string]int{}
	threadNames := map[int]string{}
	for _, e := range tr.TraceEvents {
		byPhase[e.Ph]++
		if e.Ph == "M" && e.Name == "thread_name" {
			threadNames[e.TID], _ = e.Args["name"].(string)
		}
	}
	// 1 process_name + 2 thread_name metadata, 2 op-end + 1 span = 3 X,
	// 1 counter, and no instants: an op's "X" event already marks its start.
	for ph, want := range map[string]int{"M": 3, "X": 3, "i": 0, "C": 1} {
		if byPhase[ph] != want {
			t.Errorf("phase %q count = %d, want %d (%+v)", ph, byPhase[ph], want, byPhase)
		}
	}
	if threadNames[0] != "thread 0" || threadNames[1] != "thread 1" {
		t.Errorf("thread lanes mis-named: %v", threadNames)
	}

	for _, e := range tr.TraceEvents {
		switch {
		case e.Ph == "X" && e.Name == "update":
			// op-end at 1750ns with dur 750ns → starts at 1000ns = 1.0µs.
			if e.TS != 1.0 || e.Dur != 0.75 || e.Cat != "op" || e.TID != 0 {
				t.Errorf("update X event = %+v", e)
			}
		case e.Ph == "X" && e.Name == "snapshot-acquire":
			// span at 2500ns, dur 400ns → starts at 2100ns = 2.1µs.
			if e.TS != 2.1 || e.Dur != 0.4 || e.Cat != "phase" || e.TID != 1 {
				t.Errorf("span X event = %+v", e)
			}
		case e.Ph == "X" && e.Name == "range-query":
			// dur exceeds the end timestamp: start clamps to 0.
			if e.TS != 0 || e.Dur != 9.0 {
				t.Errorf("clamped X event = %+v", e)
			}
		case e.Ph == "C":
			if e.Name != "rq-restart" || e.Args["value"].(float64) != 3 {
				t.Errorf("counter event = %+v", e)
			}
		}
	}
}

func TestChromeTraceEmptySnapshot(t *testing.T) {
	var tr map[string]any
	if err := json.Unmarshal((Snapshot{}).ChromeTrace(), &tr); err != nil {
		t.Fatalf("empty trace not JSON: %v", err)
	}
	evs, ok := tr["traceEvents"].([]any)
	if !ok || len(evs) != 1 { // just the process_name metadata
		t.Fatalf("empty trace events = %v", tr["traceEvents"])
	}
}

func TestRecorderServeHTTPChrome(t *testing.T) {
	r := NewRecorder(2, 64)
	r.OpEnd(0, obs.OpUpdate, r.Now(), 500)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?format=chrome", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cd := rec.Header().Get("Content-Disposition"); !strings.Contains(cd, "tscds-trace.json") {
		t.Fatalf("Content-Disposition = %q", cd)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("chrome body: %v", err)
	}
	if len(tr.TraceEvents) < 3 { // metadata + the recorded op events
		t.Fatalf("traceEvents = %d, want >= 3", len(tr.TraceEvents))
	}

	// Default and ?events=1 routes keep serving JSON.
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	var agg map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &agg); err != nil {
		t.Fatalf("aggregate body: %v", err)
	}
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?events=1", nil))
	if !strings.Contains(rec.Body.String(), `"events"`) {
		t.Fatalf("?events=1 body = %q", rec.Body.String())
	}

	// Nil recorder still serves a valid (empty) chrome trace.
	var nilR *Recorder
	rec = httptest.NewRecorder()
	nilR.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?format=chrome", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &agg); err != nil {
		t.Fatalf("nil chrome body: %v", err)
	}
}
