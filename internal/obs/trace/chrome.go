package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format ("Trace
// Event Format", consumed by Perfetto and chrome://tracing). Fields:
// ph is the phase letter ("X" complete, "C" counter, "M" metadata);
// ts/dur are microseconds (float — the format allows sub-microsecond
// precision, which our nanosecond events need).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope Perfetto expects.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// usFromNS converts recorder nanoseconds to trace-format microseconds.
func usFromNS(ns uint64) float64 { return float64(ns) / 1e3 }

// ChromeTrace converts a snapshot's ring events into Chrome trace-event
// JSON: one lane (tid) per registered thread, phase spans and ops as "X"
// complete events (an op-end event carries the op's duration, so it marks
// where the op began too), and phase counts as "C" counter events. The
// snapshot must have been taken with events enabled; aggregate-only
// snapshots yield an empty trace.
func (s Snapshot) ChromeTrace() []byte {
	evs := make([]chromeEvent, 0, len(s.Events)+s.Threads+1)

	// One lane per thread that actually recorded something, named so
	// Perfetto's track list is readable.
	threads := map[int]bool{}
	for _, e := range s.Events {
		threads[e.Thread] = true
	}
	tids := make([]int, 0, len(threads))
	for t := range threads {
		tids = append(tids, t)
	}
	sort.Ints(tids)
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", PID: 0, TID: 0,
		Args: map[string]any{"name": "tscds"},
	})
	for _, t := range tids {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: t,
			Args: map[string]any{"name": fmt.Sprintf("thread %d", t)},
		})
	}

	for _, e := range s.Events {
		switch e.Kind {
		case "span", "op-end":
			// Span and op-end events are recorded at completion time with
			// the duration in Value, so the trace-format start is at-dur.
			start := e.AtNS
			if e.Value <= start {
				start -= e.Value
			} else {
				start = 0
			}
			name, cat := e.Phase, "phase"
			if e.Kind == "op-end" {
				name, cat = e.Op, "op"
			}
			evs = append(evs, chromeEvent{
				Name: name, Cat: cat, Ph: "X",
				TS: usFromNS(start), Dur: usFromNS(e.Value),
				PID: 0, TID: e.Thread,
				Args: map[string]any{"seq": e.Seq},
			})
		case "count":
			evs = append(evs, chromeEvent{
				Name: e.Phase, Cat: "count", Ph: "C",
				TS: usFromNS(e.AtNS), PID: 0, TID: e.Thread,
				Args: map[string]any{"value": e.Value},
			})
		}
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ns"}); err != nil {
		return []byte(`{"traceEvents":[],"displayTimeUnit":"ns"}`)
	}
	return buf.Bytes()
}

// ServeHTTP makes a registered recorder handle its own endpoint:
// ?format=chrome returns the full ring as Chrome trace-event JSON
// (import into https://ui.perfetto.dev), ?events=1 returns the snapshot
// JSON with decoded ring events, and the default returns the aggregate
// snapshot JSON (the pre-existing /trace behavior). Nil-safe.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	switch {
	case q.Get("format") == "chrome":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Content-Disposition", `attachment; filename="tscds-trace.json"`)
		if r == nil {
			w.Write(Snapshot{}.ChromeTrace())
			return
		}
		w.Write(r.Snapshot(true).ChromeTrace())
	case q.Get("events") == "1":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if r == nil {
			fmt.Fprintln(w, "{}")
			return
		}
		fmt.Fprintln(w, r.Snapshot(true).JSON())
	default:
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, r.String())
	}
}
