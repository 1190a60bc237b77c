// Package promparse is a strict parser for the Prometheus text
// exposition format 0.0.4, used by tests to validate everything the obs
// layer exports. It is deliberately
// stricter than a real scraper: besides syntax it checks that every
// family carries # HELP and # TYPE metadata before its samples, that
// metric and label names are legal, that no series is duplicated, and
// that histograms have cumulative, +Inf-terminated buckets agreeing
// with _count. Violations come back as diagnostics, not errors, so a
// test can report all of them at once.
package promparse

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed series sample.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
	Line   int
}

// Family groups the samples of one metric family with its metadata.
// For histograms the samples include the _bucket/_sum/_count series.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Result is a parsed exposition.
type Result struct {
	// Families in first-seen order.
	Families []*Family
	byName   map[string]*Family
}

// Family returns the named family, or nil.
func (r *Result) Family(name string) *Family {
	if r == nil {
		return nil
	}
	return r.byName[name]
}

// Value finds the sample with the given name whose labels are a
// superset of want, returning (value, true) on a unique match.
func (r *Result) Value(name string, want map[string]string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	fam := r.byName[familyOf(name)]
	if fam == nil {
		return 0, false
	}
	found := false
	var v float64
	for _, s := range fam.Samples {
		if s.Name != name || !subset(want, s.Labels) {
			continue
		}
		if found {
			return 0, false // ambiguous
		}
		v, found = s.Value, true
	}
	return v, found
}

func subset(want, have map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// familyOf strips the histogram/summary sample suffixes.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

var metricNameOK = mustMatcher(func(i int, r rune) bool {
	if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':' {
		return true
	}
	return i > 0 && r >= '0' && r <= '9'
})

var labelNameOK = mustMatcher(func(i int, r rune) bool {
	if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' {
		return true
	}
	return i > 0 && r >= '0' && r <= '9'
})

func mustMatcher(ok func(int, rune) bool) func(string) bool {
	return func(s string) bool {
		if s == "" {
			return false
		}
		for i, r := range s {
			if !ok(i, r) {
				return false
			}
		}
		return true
	}
}

// parser carries the running state and accumulated diagnostics.
type parser struct {
	res   *Result
	diags []string
	line  int
	// seen de-duplicates full series identities across the exposition.
	seen map[string]int
}

func (p *parser) diagf(format string, args ...any) {
	p.diags = append(p.diags, fmt.Sprintf("line %d: %s", p.line, fmt.Sprintf(format, args...)))
}

// Parse parses a full exposition. The Result holds everything that
// could be parsed; diags lists every strictness violation found (an
// empty slice means the exposition is fully conformant).
func Parse(data []byte) (*Result, []string) {
	p := &parser{
		res:  &Result{byName: make(map[string]*Family)},
		seen: make(map[string]int),
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		p.line++
		line := sc.Text()
		switch {
		case strings.TrimSpace(line) == "":
			// blank lines are allowed anywhere
		case strings.HasPrefix(line, "# HELP "):
			p.meta(line, "HELP")
		case strings.HasPrefix(line, "# TYPE "):
			p.meta(line, "TYPE")
		case strings.HasPrefix(line, "#"):
			// other comments are legal and ignored
		default:
			p.sample(line)
		}
	}
	if err := sc.Err(); err != nil {
		p.diags = append(p.diags, fmt.Sprintf("scan: %v", err))
	}
	p.checkFamilies()
	return p.res, p.diags
}

// meta handles a # HELP or # TYPE line.
func (p *parser) meta(line, kind string) {
	rest := strings.TrimPrefix(line, "# "+kind+" ")
	name, text, ok := strings.Cut(rest, " ")
	if !ok || name == "" {
		p.diagf("malformed # %s line", kind)
		return
	}
	if !metricNameOK(name) {
		p.diagf("illegal metric name %q in # %s", name, kind)
		return
	}
	fam := p.res.byName[name]
	if fam == nil {
		fam = &Family{Name: name}
		p.res.byName[name] = fam
		p.res.Families = append(p.res.Families, fam)
	}
	switch kind {
	case "HELP":
		if fam.Help != "" {
			p.diagf("duplicate # HELP for %q", name)
		}
		if len(fam.Samples) > 0 {
			p.diagf("# HELP for %q appears after its samples", name)
		}
		fam.Help = text
	case "TYPE":
		if fam.Type != "" {
			p.diagf("duplicate # TYPE for %q", name)
		}
		if len(fam.Samples) > 0 {
			p.diagf("# TYPE for %q appears after its samples", name)
		}
		switch text {
		case "counter", "gauge", "histogram", "summary", "untyped":
			fam.Type = text
		default:
			p.diagf("unknown type %q for %q", text, name)
		}
	}
}

// sample parses one sample line: name[{labels}] value [timestamp].
func (p *parser) sample(line string) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		p.diagf("malformed sample line %q", line)
		return
	}
	name := rest[:i]
	if !metricNameOK(name) {
		p.diagf("illegal metric name %q", name)
		return
	}
	rest = rest[i:]
	labels := map[string]string{}
	if strings.HasPrefix(rest, "{") {
		var ok bool
		labels, rest, ok = p.labels(rest[1:])
		if !ok {
			return
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		p.diagf("expected value [timestamp] after %q, got %q", name, rest)
		return
	}
	val, err := parseValue(fields[0])
	if err != nil {
		p.diagf("bad value %q for %q: %v", fields[0], name, err)
		return
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			p.diagf("bad timestamp %q for %q", fields[1], name)
		}
	}

	famName := familyOf(name)
	fam := p.res.byName[famName]
	if fam == nil || fam.Type == "" {
		// a _bucket/_sum suffix only belongs to a histogram/summary
		// family; for a plain metric the full name must have metadata
		if f := p.res.byName[name]; f != nil && f.Type != "" {
			fam, famName = f, name
		} else {
			p.diagf("sample %q has no preceding # TYPE (family %q)", name, famName)
			if fam == nil {
				fam = p.res.byName[name]
			}
			if fam == nil {
				fam = &Family{Name: famName}
				p.res.byName[famName] = fam
				p.res.Families = append(p.res.Families, fam)
			}
		}
	} else if famName != name && fam.Type != "histogram" && fam.Type != "summary" {
		// e.g. foo_count with family foo typed counter: treat as its own
		// metric, which then needs its own metadata
		if f := p.res.byName[name]; f != nil && f.Type != "" {
			fam, famName = f, name
		} else {
			p.diagf("sample %q has no preceding # TYPE", name)
		}
	}
	if fam.Help == "" {
		// reported once per family in checkFamilies
		_ = fam
	}

	id := seriesID(name, labels)
	if prev, dup := p.seen[id]; dup {
		p.diagf("duplicate series %s (previous at line %d)", id, prev)
	} else {
		p.seen[id] = p.line
	}
	fam.Samples = append(fam.Samples, Sample{Name: name, Labels: labels, Value: val, Line: p.line})
}

// labels parses `k="v",...}` (the opening brace already consumed) and
// returns the remainder of the line after the closing brace.
func (p *parser) labels(rest string) (map[string]string, string, bool) {
	out := map[string]string{}
	for {
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, "}") {
			return out, rest[1:], true
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			p.diagf("malformed label set (no '=' in %q)", rest)
			return nil, "", false
		}
		k := strings.TrimSpace(rest[:eq])
		if !labelNameOK(k) {
			p.diagf("illegal label name %q", k)
			return nil, "", false
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			p.diagf("label %q value not quoted", k)
			return nil, "", false
		}
		v, rem, ok := unquote(rest[1:])
		if !ok {
			p.diagf("unterminated or bad escape in value of label %q", k)
			return nil, "", false
		}
		if _, dup := out[k]; dup {
			p.diagf("duplicate label name %q", k)
		}
		out[k] = v
		rest = rem
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return out, rest[1:], true
		}
		p.diagf("expected ',' or '}' after label %q, got %q", k, rest)
		return nil, "", false
	}
}

// unquote consumes a label value up to its closing quote, handling the
// three legal escapes (\\, \", \n).
func unquote(s string) (val, rest string, ok bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], true
		case '\\':
			i++
			if i >= len(s) {
				return "", "", false
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", false
			}
		case '\n':
			return "", "", false
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", false
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// seriesID is the full identity of a series (name + sorted labels).
func seriesID(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// checkFamilies runs the whole-family checks once parsing is done:
// metadata presence and histogram bucket discipline.
func (p *parser) checkFamilies() {
	for _, fam := range p.res.Families {
		if len(fam.Samples) == 0 {
			continue
		}
		if fam.Help == "" {
			p.diags = append(p.diags, fmt.Sprintf("family %q has samples but no # HELP", fam.Name))
		}
		if fam.Type == "" {
			p.diags = append(p.diags, fmt.Sprintf("family %q has samples but no # TYPE", fam.Name))
		}
		if fam.Type == "histogram" {
			p.checkHistogram(fam)
		}
	}
}

// checkHistogram validates each label-partitioned histogram series:
// buckets cumulative and non-decreasing in le order, terminated by a
// +Inf bucket whose value equals _count.
func (p *parser) checkHistogram(fam *Family) {
	type hist struct {
		buckets []Sample // in exposition order
		count   *Sample
		sum     *Sample
	}
	groups := map[string]*hist{}
	order := []string{}
	for i := range fam.Samples {
		s := &fam.Samples[i]
		key := seriesID("", without(s.Labels, "le"))
		g := groups[key]
		if g == nil {
			g = &hist{}
			groups[key] = g
			order = append(order, key)
		}
		switch s.Name {
		case fam.Name + "_bucket":
			if _, ok := s.Labels["le"]; !ok {
				p.diags = append(p.diags, fmt.Sprintf("line %d: %s_bucket without le label", s.Line, fam.Name))
				continue
			}
			g.buckets = append(g.buckets, *s)
		case fam.Name + "_count":
			g.count = s
		case fam.Name + "_sum":
			g.sum = s
		default:
			p.diags = append(p.diags, fmt.Sprintf("line %d: unexpected sample %q in histogram family %q", s.Line, s.Name, fam.Name))
		}
	}
	for _, key := range order {
		g := groups[key]
		id := fam.Name + key
		if len(g.buckets) == 0 {
			p.diags = append(p.diags, fmt.Sprintf("histogram %s has no buckets", id))
			continue
		}
		prevLe := math.Inf(-1)
		prevCum := -1.0
		for _, b := range g.buckets {
			le, err := parseValue(b.Labels["le"])
			if err != nil {
				p.diags = append(p.diags, fmt.Sprintf("line %d: bad le %q in %s", b.Line, b.Labels["le"], id))
				continue
			}
			if le <= prevLe {
				p.diags = append(p.diags, fmt.Sprintf("line %d: le %q not increasing in %s", b.Line, b.Labels["le"], id))
			}
			if b.Value < prevCum {
				p.diags = append(p.diags, fmt.Sprintf("line %d: bucket values not cumulative in %s (%g after %g)", b.Line, id, b.Value, prevCum))
			}
			prevLe, prevCum = le, b.Value
		}
		last := g.buckets[len(g.buckets)-1]
		if !math.IsInf(mustLe(last), 1) {
			p.diags = append(p.diags, fmt.Sprintf("histogram %s not terminated by le=\"+Inf\"", id))
		}
		if g.count == nil {
			p.diags = append(p.diags, fmt.Sprintf("histogram %s missing _count", id))
		} else if math.IsInf(mustLe(last), 1) && g.count.Value != last.Value {
			p.diags = append(p.diags, fmt.Sprintf("histogram %s +Inf bucket (%g) != _count (%g)", id, last.Value, g.count.Value))
		}
		if g.sum == nil {
			p.diags = append(p.diags, fmt.Sprintf("histogram %s missing _sum", id))
		}
	}
}

func mustLe(s Sample) float64 {
	v, err := parseValue(s.Labels["le"])
	if err != nil {
		return math.NaN()
	}
	return v
}

func without(m map[string]string, drop string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		if k != drop {
			out[k] = v
		}
	}
	return out
}
