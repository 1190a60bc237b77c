package obs

import (
	"fmt"
	"io"
	"reflect"
	"strings"
)

// PromVar is the optional capability a Var may implement to appear in
// the Prometheus text exposition (/metrics.prom). WriteProm writes zero
// or more complete metric families in text exposition format 0.0.4:
// every family introduced by its # HELP and # TYPE lines, histogram
// buckets cumulative and +Inf-terminated. *Registry implements it; so
// does *tsc.Health (structurally — this package never imports tsc).
type PromVar interface {
	WriteProm(w io.Writer)
}

// PromEscape escapes a label value per the text exposition format
// (backslash, double quote, and newline).
func PromEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promLabel is one label pair, pre-escaped at render time.
type promLabel struct{ k, v string }

// promLabels renders an ordered label set; an empty set renders as "".
func promLabels(ls []promLabel) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.k)
		b.WriteString(`="`)
		b.WriteString(PromEscape(l.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promHead writes a family's # HELP and # TYPE metadata.
func promHead(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promU64 writes one sample with an integer value.
func promU64(w io.Writer, name string, ls []promLabel, v uint64) {
	fmt.Fprintf(w, "%s%s %d\n", name, promLabels(ls), v)
}

// with returns ls extended by one pair (copy; ls is never mutated).
func with(ls []promLabel, k, v string) []promLabel {
	out := make([]promLabel, len(ls), len(ls)+1)
	copy(out, ls)
	return append(out, promLabel{k, v})
}

// WriteProm renders the registry as Prometheus text-format families: op
// counters and latency histograms (cumulative _bucket/_sum/_count, le in
// nanoseconds), the source info gauge, one family per field of every
// counter block the registry holds, and the per-shard families. The
// structure= and source= labels carry the attached map's Structure and
// Source labels on every sample; a block's mode adds mode=, shard families
// shard=. Nil-safe (writes nothing).
func (r *Registry) WriteProm(w io.Writer) {
	if r == nil {
		return
	}
	s := r.Snapshot()
	var base []promLabel
	if s.Structure != "" {
		base = append(base, promLabel{"structure", s.Structure})
	}
	if s.Source.Kind != "" {
		base = append(base, promLabel{"source", s.Source.Kind})
	}

	promHead(w, "tscds_ops_total", "Completed operations by class.", "counter")
	for c := OpClass(0); c < NumOpClasses; c++ {
		promU64(w, "tscds_ops_total", with(base, "class", c.String()), s.Ops[c.String()].Count)
	}

	promHead(w, "tscds_op_latency_ns", "Operation latency in nanoseconds (log2 buckets; le is the bucket's inclusive upper bound).", "histogram")
	for c := OpClass(0); c < NumOpClasses; c++ {
		op := s.Ops[c.String()]
		lb := with(base, "class", c.String())
		var cum uint64
		for _, b := range op.Buckets {
			cum += b.Count
			if b.UpToNS == ^uint64(0) {
				continue // the unbounded tail is the +Inf bucket below
			}
			promU64(w, "tscds_op_latency_ns_bucket", with(lb, "le", fmt.Sprintf("%d", b.UpToNS)), cum)
		}
		// +Inf and _count both report the bucket-derived total so the
		// exposition is internally consistent even while writers run.
		promU64(w, "tscds_op_latency_ns_bucket", with(lb, "le", "+Inf"), cum)
		promU64(w, "tscds_op_latency_ns_sum", lb, op.SumNS)
		promU64(w, "tscds_op_latency_ns_count", lb, cum)
	}

	actual := s.Source.Actual
	if actual == "" {
		actual = s.Source.Kind
	}
	promHead(w, "tscds_source_info", "Requested and actually-serving timestamp source (value is always 1).", "gauge")
	promU64(w, "tscds_source_info", with(with(base, "requested", s.Source.Kind), "actual", actual), 1)

	s.each(func(b *block, v reflect.Value) {
		ls := base
		for _, f := range b.fields {
			if f.label {
				ls = with(ls, f.key, v.Field(f.index).String())
			}
		}
		lbl := promLabels(ls)
		for i := range b.fields {
			f := &b.fields[i]
			name, typ := "tscds_"+b.name+"_"+f.key, "gauge"
			switch f.kind {
			case reflect.String:
				continue
			case reflect.Uint64:
				name, typ = name+"_total", "counter"
			}
			promHead(w, name, f.help, typ)
			fmt.Fprintf(w, "%s%s %s\n", name, lbl, f.number(v))
		}
	})

	if len(s.Shards) > 0 {
		promHead(w, "tscds_shard_ops_total", "Point operations routed to each shard by the key partition.", "counter")
		for i, sh := range s.Shards {
			promU64(w, "tscds_shard_ops_total", with(base, "shard", fmt.Sprintf("%d", i)), sh.Ops)
		}
		promHead(w, "tscds_shard_rqs_total", "Range-query collections that visited each shard.", "counter")
		for i, sh := range s.Shards {
			promU64(w, "tscds_shard_rqs_total", with(base, "shard", fmt.Sprintf("%d", i)), sh.RQs)
		}
	}
}
