package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"tscds/internal/obs/promparse"
)

// fullRegistry builds a registry exercising every optional block, so
// the exposition contains op, source, gc, pool, wal and shard families.
func fullRegistry() *Registry {
	r := NewRegistry()
	r.SetSourceKind("RDTSCP")
	r.SetSourceActual(func() string { return "Logical" })
	r.SetStructure("bst/vcas")
	r.SetAllocMode("Pool")
	r.SetWALMode("batched(64)")
	r.EnsureShards(2)
	for i := 0; i < 100; i++ {
		r.ObserveOp(0, OpUpdate, uint64(time.Duration(i+1)*time.Microsecond))
	}
	r.ObserveOp(0, OpRange, uint64(5*time.Millisecond))
	r.ObserveOp(0, OpContains, uint64(300*time.Nanosecond))
	r.Source.Advances.Add(101)
	r.Source.Snapshots.Add(7)
	r.Source.SnapshotRetries.Add(2)
	r.GC.LimboRetired.Add(50)
	r.GC.LimboPruned.Add(40)
	r.GC.LimboLen.Add(10)
	r.Pool.Hits.Add(90)
	r.Pool.Misses.Add(10)
	r.Pool.Recycled.Add(33)
	r.WAL.Appends.Add(1000)
	r.WAL.Fsyncs.Add(16)
	r.WAL.Errors.Add(1)
	for tid := 0; tid < 60; tid++ { // every stripe, summed by Snapshot
		r.Shard(0).Op(tid)
		if tid < 40 {
			r.Shard(1).Op(tid)
		}
	}
	r.Shard(0).RQs.Add(7)
	r.Shard(1).RQs.Add(7)
	return r
}

func TestWritePromStrictParse(t *testing.T) {
	var buf bytes.Buffer
	fullRegistry().WriteProm(&buf)
	res, diags := promparse.Parse(buf.Bytes())
	if len(diags) > 0 {
		t.Fatalf("strict parse diagnostics:\n  %s\nexposition:\n%s",
			strings.Join(diags, "\n  "), buf.String())
	}

	// Every family group must be present.
	for _, fam := range []string{
		"tscds_ops_total", "tscds_op_latency_ns",
		"tscds_source_advances_total", "tscds_source_snapshot_retries_total",
		"tscds_source_info",
		"tscds_gc_limbo_retired_total", "tscds_gc_limbo_len",
		"tscds_pool_hits_total", "tscds_wal_appends_total",
		"tscds_shard_ops_total", "tscds_shard_rqs_total",
	} {
		if res.Family(fam) == nil {
			t.Errorf("family %s missing", fam)
		}
	}

	// Labels carry structure/source identity, counts survive round-trip.
	if v, ok := res.Value("tscds_ops_total", map[string]string{
		"class": "update", "structure": "bst/vcas", "source": "RDTSCP",
	}); !ok || v != 100 {
		t.Errorf("ops_total{class=update} = %v, %v; want 100, true", v, ok)
	}
	if v, ok := res.Value("tscds_op_latency_ns_count", map[string]string{"class": "update"}); !ok || v != 100 {
		t.Errorf("latency count{update} = %v, %v; want 100, true", v, ok)
	}
	if v, ok := res.Value("tscds_op_latency_ns_bucket", map[string]string{"class": "update", "le": "+Inf"}); !ok || v != 100 {
		t.Errorf("latency +Inf bucket{update} = %v, %v; want 100, true", v, ok)
	}
	if v, ok := res.Value("tscds_source_info", map[string]string{"requested": "RDTSCP", "actual": "Logical"}); !ok || v != 1 {
		t.Errorf("source_info = %v, %v; want 1, true", v, ok)
	}
	if v, ok := res.Value("tscds_pool_hits_total", map[string]string{"mode": "Pool"}); !ok || v != 90 {
		t.Errorf("pool hits = %v, %v; want 90, true", v, ok)
	}
	if v, ok := res.Value("tscds_wal_errors_total", map[string]string{"mode": "batched(64)"}); !ok || v != 1 {
		t.Errorf("wal errors = %v, %v; want 1, true", v, ok)
	}
	if v, ok := res.Value("tscds_shard_ops_total", map[string]string{"shard": "1"}); !ok || v != 40 {
		t.Errorf("shard 1 ops = %v, %v; want 40, true", v, ok)
	}
	if v, ok := res.Value("tscds_gc_limbo_len", nil); !ok || v != 10 {
		t.Errorf("limbo_len = %v, %v; want 10, true", v, ok)
	}
}

// TestEveryMetricExported gives every live counter and gauge of a fully
// wired registry its own value, then requires each numeric field of every
// snapshot block to hold one of those values, and to show it under its
// JSON key and in the family tscds_<block>_<key> (plus _total on a
// counter) of the exposition.
func TestEveryMetricExported(t *testing.T) {
	r := NewRegistry()
	r.SetStructure("bst/vcas")
	r.SetSourceKind("RDTSCP")
	r.SetAllocMode("Pool")
	r.SetWALMode("sync")
	r.EnsureShards(2)
	assigned := map[uint64]bool{}
	rv := reflect.ValueOf(r).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if !rv.Type().Field(i).IsExported() {
			continue
		}
		for j, live := 0, rv.Field(i); j < live.NumField(); j++ {
			v := uint64(len(assigned) + 1)
			switch c := live.Field(j).Addr().Interface().(type) {
			case *Counter:
				c.Add(v)
			case *Gauge:
				c.Set(int64(v))
			default:
				continue
			}
			assigned[v] = true
		}
	}

	var js map[string]any
	if err := json.Unmarshal([]byte(r.String()), &js); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.WriteProm(&buf)
	res, diags := promparse.Parse(buf.Bytes())
	if len(diags) > 0 {
		t.Fatalf("strict parse diagnostics: %v", diags)
	}

	seen := map[uint64]bool{}
	snap := r.Snapshot()
	sv := reflect.ValueOf(snap)
	for i := 0; i < sv.NumField(); i++ {
		blk := reflect.Indirect(sv.Field(i))
		if blk.Kind() != reflect.Struct {
			continue
		}
		name, _, _ := strings.Cut(sv.Type().Field(i).Tag.Get("json"), ",")
		for j := 0; j < blk.NumField(); j++ {
			f := blk.Type().Field(j)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			family := "tscds_" + name + "_" + key
			var v uint64
			switch f.Type.Kind() {
			case reflect.Uint64:
				v, family = blk.Field(j).Uint(), family+"_total"
			case reflect.Int64:
				v = uint64(blk.Field(j).Int())
			default:
				continue
			}
			if !assigned[v] {
				t.Errorf("%s.%s = %d: not filled from a live counter or gauge", name, key, v)
				continue
			}
			seen[v] = true
			if got, ok := js[name].(map[string]any)[key].(float64); !ok || uint64(got) != v {
				t.Errorf("JSON %s.%s = %v, want %d", name, key, got, v)
			}
			if got, ok := res.Value(family, nil); !ok || uint64(got) != v {
				t.Errorf("%s = %v, %v; want %d", family, got, ok, v)
			}
		}
	}
	if len(seen) != len(assigned) {
		t.Errorf("%d live counters and gauges, %d of them in a snapshot block", len(assigned), len(seen))
	}
}

// A bare registry (no structure/pool/wal/shard wiring) must still emit
// a conformant exposition with only the unconditional families.
func TestWritePromBareRegistry(t *testing.T) {
	r := NewRegistry()
	r.ObserveOp(0, OpUpdate, uint64(time.Microsecond))
	var buf bytes.Buffer
	r.WriteProm(&buf)
	res, diags := promparse.Parse(buf.Bytes())
	if len(diags) > 0 {
		t.Fatalf("diagnostics: %v", diags)
	}
	for _, fam := range []string{"tscds_pool_hits_total", "tscds_wal_appends_total", "tscds_shard_ops_total"} {
		if res.Family(fam) != nil {
			t.Errorf("family %s present on bare registry", fam)
		}
	}
	if got := res.Family("tscds_ops_total"); got == nil {
		t.Fatal("tscds_ops_total missing")
	}
}

func TestWritePromNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	(*Registry)(nil).WriteProm(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q", buf.String())
	}
}

func TestPromEscape(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := PromEscape(in); got != want {
		t.Fatalf("PromEscape(%q) = %q, want %q", in, got, want)
	}
	// Escaped label values must round-trip through the parser.
	r := NewRegistry()
	r.SetStructure(in)
	r.ObserveOp(0, OpUpdate, uint64(time.Microsecond))
	var buf bytes.Buffer
	r.WriteProm(&buf)
	res, diags := promparse.Parse(buf.Bytes())
	if len(diags) > 0 {
		t.Fatalf("diagnostics: %v", diags)
	}
	if _, ok := res.Value("tscds_ops_total", map[string]string{"class": "update", "structure": in}); !ok {
		t.Fatalf("escaped structure label did not round-trip")
	}
}
