package telemetry

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// --- Prometheus text exposition format --------------------------------

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE header per family,
// one sample line per child (per exported octave bucket for histograms,
// cumulative, with the canonical _bucket/_sum/_count series).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(string(f.kind))
		bw.WriteByte('\n')
		for _, c := range f.snapshotChildren() {
			switch f.kind {
			case KindCounter:
				writeSample(bw, f.name, "", f.labelNames, c.labelValues, "", "", formatUint(c.counter.Value()))
			case KindGauge:
				writeSample(bw, f.name, "", f.labelNames, c.labelValues, "", "", strconv.FormatInt(c.gauge.Value(), 10))
			case KindHistogram:
				h := c.hist
				for i, cum := range h.cumulative() {
					writeSample(bw, f.name, "_bucket", f.labelNames, c.labelValues, "le", exportLE[i], formatUint(cum))
				}
				writeSample(bw, f.name, "_sum", f.labelNames, c.labelValues, "", "", formatFloat(h.Sum()))
				writeSample(bw, f.name, "_count", f.labelNames, c.labelValues, "", "", formatUint(h.Count()))
			}
		}
	}
	return bw.Flush()
}

// writeSample writes one exposition line:
// name[suffix]{labels...[,extraName="extraValue"]} value
func writeSample(bw *bufio.Writer, name, suffix string, labelNames, labelValues []string, extraName, extraValue, value string) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if len(labelNames) > 0 || extraName != "" {
		bw.WriteByte('{')
		for i, ln := range labelNames {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(ln)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(labelValues[i]))
			bw.WriteByte('"')
		}
		if extraName != "" {
			if len(labelNames) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(extraName)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(extraValue))
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// --- JSON snapshot ----------------------------------------------------

// Snapshot is the JSON view of a registry: the GET /v1/stats payload
// and the structure cmd/mlbench diffs across a load run.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one family.
type MetricSnapshot struct {
	Name   string          `json:"name"`
	Kind   Kind            `json:"kind"`
	Help   string          `json:"help,omitempty"`
	Values []ValueSnapshot `json:"values"`
}

// ValueSnapshot is one labelled instance. Counters and gauges fill
// Value; histograms fill Count, Sum and Buckets.
type ValueSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket at an exported
// octave bound; LE is "+Inf" on the last one.
type BucketSnapshot struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// Snapshot captures every metric's current value. It reads the atomics
// without stopping writers, so a snapshot taken under load is a
// near-point-in-time view, not a consistent cut — fine for stats
// endpoints and load-test diffs.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.snapshotFamilies() {
		ms := MetricSnapshot{Name: f.name, Kind: f.kind, Help: f.help}
		for _, c := range f.snapshotChildren() {
			vs := ValueSnapshot{}
			if len(f.labelNames) > 0 {
				vs.Labels = make(map[string]string, len(f.labelNames))
				for i, ln := range f.labelNames {
					vs.Labels[ln] = c.labelValues[i]
				}
			}
			switch f.kind {
			case KindCounter:
				vs.Value = float64(c.counter.Value())
			case KindGauge:
				vs.Value = float64(c.gauge.Value())
			case KindHistogram:
				h := c.hist
				vs.Count = h.Count()
				vs.Sum = h.Sum()
				vs.Buckets = make([]BucketSnapshot, len(exportLE))
				for i, cum := range h.cumulative() {
					vs.Buckets[i] = BucketSnapshot{LE: exportLE[i], Count: cum}
				}
			}
			ms.Values = append(ms.Values, vs)
		}
		snap.Metrics = append(snap.Metrics, ms)
	}
	return snap
}

// CounterTotals flattens a snapshot's counters into "name{label="v"}"
// → value, the shape mlbench diffs before/after a load run. Label
// order inside the braces follows the family's declared label order,
// so keys are stable across snapshots of one daemon.
func (s Snapshot) CounterTotals() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range s.Metrics {
		if m.Kind != KindCounter {
			continue
		}
		for _, v := range m.Values {
			out[seriesKey(m.Name, v.Labels)] = v.Value
		}
	}
	return out
}

// seriesKey formats name plus labels as a Prometheus-style series
// identifier. Maps iterate in random order, so label names are sorted.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	names := make([]string, 0, len(labels))
	for ln := range labels {
		names = append(names, ln)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, ln := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(ln)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[ln]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
