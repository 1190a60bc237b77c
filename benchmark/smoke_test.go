package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"tscds"
)

// TestSmoke runs a 2,000-operation miniature of every workload, untraced
// and traced, through the same driver as the real runs, and holds
// BENCHMARK.json equal to the tables the program prints its metrics from.
func TestSmoke(t *testing.T) {
	var contract struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the program aims for %d", contract.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end of BENCHMARK.json differs from the program's table:\n%v\n%v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer of BENCHMARK.json differs from the program's table")
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(contract.Workloads), len(workloads))
	}

	full := workloads
	t.Cleanup(func() { workloads = full })
	workloads = nil
	for _, w := range full {
		workloads = append(workloads, w.miniature())
	}
	for i := range workloads {
		w := &workloads[i]
		if contract.Workloads[i].Name != w.name || contract.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, contract.Workloads[i].Name, w.name)
		}
		m, err := measure(w, options{seed: 7, source: tscds.TSC, warmup: 1, rounds: 2, minBuilds: 2})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := m.endToEndMetrics().print(endToEnd); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if attempted, failed := m.counts(); failed != 0 || attempted == 0 {
			t.Errorf("%s: %d of %d operations failed their output check", w.name, failed, attempted)
		}
		ms, _, attempted, failed, err := tracedRun(w, 7, &spans{})
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if err := ms.print(perLayer); err != nil {
			t.Errorf("%s traced: %v", w.name, err)
		}
		if failed != 0 || attempted == 0 {
			t.Errorf("%s traced: %d of %d operations failed their output check", w.name, failed, attempted)
		}
	}
}
