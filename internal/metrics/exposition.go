// The exposition seam: what a /metrics body looks like is decided here and
// nowhere else. A package declares each of its families once, as a Metric
// built over the counters it already keeps (Counter, Gauge, Table, …) and
// read at the scrape; Write prints Metrics in the Prometheus text format —
// one "# TYPE" per family, ahead of its samples, the samples in one group;
// Read is Write's strict inverse, which gridrouter federates its partitions'
// bodies with and the tests use as the conformance check. docs/PROTOCOL.md
// lists every family.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// Kind is a family's "# TYPE".
type Kind string

const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
	// KindSummary families hold a "_sum" and a "_count" sample, no quantiles.
	KindSummary Kind = "summary"
)

// Metric is one family and its samples at one scrape.
type Metric struct {
	Name    string
	Kind    Kind
	Samples []Sample
}

// Sample is one series' value. Suffix is "_sum" or "_count" in a summary,
// else empty.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

type Label struct{ Name, Value string }

// Counter and Gauge declare an unlabelled family over v; Fixed one whose
// value is computed, not kept as it is served.
func Counter(name string, v *atomic.Int64) Metric { return Fixed(name, KindCounter, float64(v.Load())) }
func Gauge(name string, v *atomic.Int64) Metric   { return Fixed(name, KindGauge, float64(v.Load())) }

func Fixed(name string, kind Kind, v float64) Metric {
	return Metric{Name: name, Kind: kind, Samples: []Sample{{Value: v}}}
}

// Of is one series of a family with a single label.
func Of(label, value string, v float64) Sample {
	return Sample{Labels: []Label{{label, value}}, Value: v}
}

// Column is one family of a Table: its value for a row.
type Column[T any] struct {
	Name  string
	Kind  Kind
	Value func(*T) float64
}

func Col[T any](name string, kind Kind, v func(*T) float64) Column[T] {
	return Column[T]{name, kind, v}
}

// Table declares one family per column over the same rows — the tenants,
// jobs or worker slots of one scrape — each row a series labelled by of. No
// rows, no families.
func Table[T any](rows []T, of func(*T) []Label, cols ...Column[T]) []Metric {
	if len(rows) == 0 {
		return nil
	}
	ms := make([]Metric, len(cols))
	for i, col := range cols {
		ms[i] = Metric{Name: col.Name, Kind: col.Kind, Samples: make([]Sample, len(rows))}
		for k := range rows {
			ms[i].Samples[k] = Sample{Labels: of(&rows[k]), Value: col.Value(&rows[k])}
		}
	}
	return ms
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Write prints ms in the text exposition format, in one write. Metrics of
// one name — the same family scraped from several partitions — are merged
// into one group under one "# TYPE", at the place the name first appears. A
// whole number prints as an integer, anything else the shortest way that
// reads back (%g).
func Write(w io.Writer, ms []Metric) error {
	groups := make([]Metric, 0, len(ms))
	at := make(map[string]int, len(ms))
	for _, m := range ms {
		i, ok := at[m.Name]
		if !ok {
			at[m.Name] = len(groups)
			groups = append(groups, m)
			continue
		}
		if groups[i].Kind != m.Kind {
			return fmt.Errorf("metrics: family %s is both %s and %s", m.Name, groups[i].Kind, m.Kind)
		}
		groups[i].Samples = append(slices.Clip(groups[i].Samples), m.Samples...)
	}
	var b []byte
	for _, m := range groups {
		b = fmt.Appendf(b, "# TYPE %s %s\n", m.Name, m.Kind)
		for _, s := range m.Samples {
			b = append(append(b, m.Name...), s.Suffix...)
			for k, l := range s.Labels {
				b = append(b, "{,"[min(k, 1)]) // '{' opens the first label, ',' every other
				b = fmt.Appendf(b, `%s="%s"`, l.Name, labelEscaper.Replace(l.Value))
			}
			if len(s.Labels) > 0 {
				b = append(b, '}')
			}
			b = append(b, ' ')
			if s.Value == math.Trunc(s.Value) && math.Abs(s.Value) < 1e15 {
				b = strconv.AppendInt(b, int64(s.Value), 10)
			} else {
				b = strconv.AppendFloat(b, s.Value, 'g', -1, 64)
			}
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// Read parses a text exposition body, and accepts only what Write could
// have written: every sample belongs to the family whose "# TYPE" is the
// last one above it, no family is declared twice (so none is split), no
// series appears twice. Comment lines other than "# TYPE" are skipped.
func Read(r io.Reader) ([]Metric, error) {
	var ms []Metric
	families, series := make(map[string]bool), make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		fail := func(format string, args ...any) ([]Metric, error) {
			return nil, fmt.Errorf("metrics: line %d: %s: %s", n, fmt.Sprintf(format, args...), line)
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if k := Kind(kind); k != KindCounter && k != KindGauge && k != KindSummary {
				return fail("unknown type %q", kind)
			}
			if families[name] {
				return fail("a second # TYPE for %s", name)
			}
			families[name] = true
			ms = append(ms, Metric{Name: name, Kind: Kind(kind)})
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, s, err := readSample(line)
		if err != nil {
			return fail("%v", err)
		}
		id := line[:strings.LastIndexByte(line, ' ')]
		if series[id] {
			return fail("series appears twice")
		}
		series[id] = true
		if len(ms) == 0 {
			return fail("sample %s has no # TYPE above it", name)
		}
		m := &ms[len(ms)-1]
		suffix, ok := strings.CutPrefix(name, m.Name)
		if m.Kind == KindSummary {
			ok = ok && (suffix == "_sum" || suffix == "_count")
		} else {
			ok = ok && suffix == ""
		}
		if !ok {
			return fail("sample %s inside family %s %s", name, m.Name, m.Kind)
		}
		s.Suffix = suffix
		m.Samples = append(m.Samples, s)
	}
	return ms, sc.Err()
}

// readSample parses `name{l="v",…} value` or `name value`. A label value's
// escapes (\\, \", \n) are a subset of a Go string's, and are read as one.
func readSample(line string) (name string, s Sample, err error) {
	end := strings.IndexAny(line, "{ ")
	if end <= 0 {
		return "", s, fmt.Errorf("not a sample")
	}
	name, rest := line[:end], line[end:]
	for sep, closed := "{", rest[0] == ' '; !closed; sep = "," {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 || !strings.HasPrefix(rest, sep) {
			return name, s, fmt.Errorf("malformed label set")
		}
		quoted, err := strconv.QuotedPrefix(rest[eq+1:])
		if err != nil || quoted[0] != '"' {
			return name, s, fmt.Errorf("malformed label value")
		}
		value, _ := strconv.Unquote(quoted)
		s.Labels = append(s.Labels, Label{rest[1:eq], value})
		rest, closed = strings.CutPrefix(rest[eq+1+len(quoted):], "}")
	}
	if s.Value, err = strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
		return name, s, fmt.Errorf("value %q is not a number", strings.TrimSpace(rest))
	}
	return name, s, nil
}
