package tsc

import (
	"bytes"
	"testing"
	"time"

	"tscds/internal/obs/promparse"
)

// The health exposition must strict-parse with zero diagnostics and
// carry the counters a scraper alerts on.
func TestHealthWritePromStrictParse(t *testing.T) {
	h := NewHealth(4)
	for i := 0; i < 8; i++ {
		h.Sample(0)
	}
	h.InjectBackstep(uint64(time.Millisecond))
	h.InjectBackstep(uint64(time.Millisecond))
	h.NoteSourceSwitch(false, 5*time.Millisecond)
	h.NoteSourceSwitch(true, 2*time.Millisecond)

	var buf bytes.Buffer
	h.WriteProm(&buf)
	res, diags := promparse.Parse(buf.Bytes())
	if len(diags) > 0 {
		t.Fatalf("strict parse diagnostics: %v\nexposition:\n%s", diags, buf.String())
	}

	for _, fam := range []string{
		"tscds_tsc_info",
		"tscds_tsc_samples_total", "tscds_tsc_cross_regressions_total",
		"tscds_tsc_self_regressions_total", "tscds_tsc_max_backstep_ns",
		"tscds_tsc_injected_faults_total",
		"tscds_tsc_source_switches_total", "tscds_tsc_source_failbacks_total",
		"tscds_tsc_switch_ns_total", "tscds_tsc_ticks_per_ns",
	} {
		if res.Family(fam) == nil {
			t.Errorf("family %s missing", fam)
		}
	}

	if v, ok := res.Value("tscds_tsc_injected_faults_total", nil); !ok || v != 2 {
		t.Errorf("injected_faults = %v, %v; want 2", v, ok)
	}
	if v, ok := res.Value("tscds_tsc_source_switches_total", nil); !ok || v != 1 {
		t.Errorf("switches = %v, %v; want 1", v, ok)
	}
	if v, ok := res.Value("tscds_tsc_source_failbacks_total", nil); !ok || v != 1 {
		t.Errorf("failbacks = %v, %v; want 1", v, ok)
	}
	// tscds_tsc_info carries the state as a label with value 1.
	info := res.Family("tscds_tsc_info")
	if len(info.Samples) != 1 || info.Samples[0].Value != 1 {
		t.Fatalf("info samples = %+v", info.Samples)
	}
	if info.Samples[0].Labels["state"] == "" {
		t.Fatalf("info has no state label: %+v", info.Samples[0].Labels)
	}
}

func TestHealthWritePromNil(t *testing.T) {
	var buf bytes.Buffer
	(*Health)(nil).WriteProm(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil health wrote %q", buf.String())
	}
}
