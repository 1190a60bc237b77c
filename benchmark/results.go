package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"tscds"
)

// deviation is recorded in every results file: where the benchmark leaves
// the paper's set-up, and why.
const deviation = "paper-mix uses a 131,072-key range, not the paper's 1,000,000: identical runs at 1M keys moved 25 % in throughput and 24 % in set-up on the 2-vCPU shared build host, so that size is not gated and stays with cmd/rqbench"

// fingerprint says where and on what a run was made.
type fingerprint struct {
	NProc             int    `json:"nproc"`
	GOMAXPROCS        int    `json:"gomaxprocs"`
	GoVersion         string `json:"go_version"`
	Commit            string `json:"commit"`
	SourceRequested   string `json:"source_requested"`
	SourceActual      string `json:"source_actual"`
	HardwareTimestamp bool   `json:"hardware_timestamp_supported"`
	Deviation         string `json:"deviation"`
}

func newFingerprint(requested, actual tscds.SourceKind) fingerprint {
	fp := fingerprint{
		NProc:             runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		GoVersion:         runtime.Version(),
		Commit:            "unknown", // a checkout that is not a git repository has none
		SourceRequested:   requested.String(),
		SourceActual:      actual.String(),
		HardwareTimestamp: tscds.HardwareTimestampSupported(),
		Deviation:         deviation,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// runRecord is one invocation in a results file.
type runRecord struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Traced      bool        `json:"traced"`
	Rounds      int         `json:"rounds"`
	RefcallNS   float64     `json:"refcall_ns"`
	RefscanNS   float64     `json:"refscan_ns"`
	Correct     bool        `json:"correct"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	Metrics     metricSet   `json:"metrics"`
	Fingerprint fingerprint `json:"fingerprint"`
}

// results is the shape of a results file: the runs appended to it so far.
type results struct {
	Runs []runRecord `json:"runs"`
}

func loadResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(data, &r)
}

// appendResult adds one run to the results file at path, replacing the file
// atomically.
func appendResult(path string, rec runRecord) error {
	r, err := loadResults(path)
	if err != nil {
		return err
	}
	r.Runs = append(r.Runs, rec)
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// values returns the metric's values over the untraced runs of a workload.
func (r results) values(workload, metric string) []float64 {
	var xs []float64
	for _, run := range r.Runs {
		if v, ok := run.Metrics[metric]; ok && run.Workload == workload && !run.Traced {
			xs = append(xs, v.Value)
		}
	}
	return xs
}
