package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The benchmark's own trace: a span around every call into a layer,
// recorded from the benchmark's files (tracing inside the program is a later
// issue), held in memory and written as a Chrome trace when the run ends.

// span has a name, a start, an end, the span that caused it and the trial
// it belongs to; spans of one trial share that id.
type span struct {
	name       string
	start, end time.Time
	parent     int // index of the causing span, -1 for the root
	trial      int // round number shared by the spans of one trial, -1 outside trials
	tid        int // 0 driver, 1.. workers
	args       map[string]any
}

// spans is the span log. A nil *spans records nothing, so untraced runs pay
// one nil test per call.
type spans struct {
	mu   sync.Mutex
	list []span
}

// begin opens a span and returns its index for end and for children.
func (s *spans) begin(name string, parent, trial, tid int) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{name: name, start: time.Now(), parent: parent, trial: trial, tid: tid})
	return len(s.list) - 1
}

// end closes a span; kv is pairs of argument name and value.
func (s *spans) end(id int, kv ...any) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := &s.list[id]
	sp.end = now
	for i := 0; i+1 < len(kv); i += 2 {
		if sp.args == nil {
			sp.args = make(map[string]any)
		}
		sp.args[kv[i].(string)] = kv[i+1]
	}
}

// add records a finished span.
func (s *spans) add(name string, parent, trial, tid int, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{name: name, start: start, end: end, parent: parent, trial: trial, tid: tid})
}

// write renders the log as Chrome trace events (complete events, times in
// microseconds since the first span) to path.
func (s *spans) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	events := make([]event, 0, len(s.list))
	for id, sp := range s.list {
		args := map[string]any{"id": id, "parent": sp.parent, "trial": sp.trial}
		for k, v := range sp.args {
			args[k] = v
		}
		events = append(events, event{
			Name: sp.name, Ph: "X", PID: 1, TID: sp.tid, Args: args,
			TS:  float64(sp.start.Sub(s.list[0].start)) / 1e3,
			Dur: float64(sp.end.Sub(sp.start)) / 1e3,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
