// Package telemetry is mltuned's zero-dependency metrics subsystem:
// counters, gauges, and fixed-bucket latency histograms with a
// lock-free atomic hot path, collected in a Registry that renders both
// Prometheus text exposition format (GET /metrics) and a JSON snapshot
// (GET /v1/stats).
//
// Design constraints, in order:
//
//  1. The hot path allocates nothing. Incrementing a counter, moving a
//     gauge, or observing a histogram value is a handful of atomic
//     operations on pre-resolved handles — no map lookups, no label
//     formatting, no interface boxing. Labelled handles are resolved
//     once at wiring time (Vec.With) and then used like unlabelled ones.
//  2. Mutation methods are nil-receiver safe: a component that was
//     wired without metrics (tests, library use) calls the same code
//     with nil handles and pays two instructions per call. Read and
//     registration paths are not nil-safe — those are wiring bugs.
//  3. Export never blocks the hot path. Snapshots read the atomics;
//     the registry lock only serialises registration and enumeration.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind is the metric family type.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// --- primitives -------------------------------------------------------

// Counter is a monotonically increasing value. The zero value is ready
// to use; a nil *Counter discards mutations.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is a programming error and is ignored: a
// counter must never go down).
func (c *Counter) Add(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use; a nil *Gauge discards mutations.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Inc adds one.
func (g *Gauge) Inc() {
	if g == nil {
		return
	}
	g.v.Add(1)
}

// Dec subtracts one.
func (g *Gauge) Dec() {
	if g == nil {
		return
	}
	g.v.Add(-1)
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution: observation counts per
// upper bound plus a total count and sum. Observe is lock-free: one
// atomic add into the right bucket, one into the count, and a CAS loop
// folding the value into the float64 sum. A nil *Histogram discards
// observations.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; the +Inf bucket is implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// DefLatencyBuckets are the default request-latency upper bounds in
// seconds: 100µs to ~10s, roughly ×2.5 per step — wide enough for a
// cache-hit predict (µs) and a cold full-space top-M sweep (seconds)
// to land in distinct buckets.
func DefLatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the scan touches
	// one cache line of bounds, which beats a branchy binary search at
	// this size — and allocates nothing either way.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// --- labelled families ------------------------------------------------

// labelKey joins label values into a map key. Values are joined with
// 0xFF, a byte that cannot appear in UTF-8 text, so distinct value
// tuples cannot collide.
func labelKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0xFF)
		}
		b = append(b, v...)
	}
	return string(b)
}

// child is one labelled instance inside a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is one named metric: its metadata plus its children (exactly
// one, unlabelled, for plain metrics).
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
	order    []*child // insertion order, for stable export
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %s has labels %v, got %d values", f.name, f.labelNames, len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		c.hist = newHistogram(f.buckets)
	}
	f.children[key] = c
	f.order = append(f.order, c)
	return c
}

// CounterVec is a counter family with labels. Resolve handles once at
// wiring time with With; the returned *Counter is the allocation-free
// hot-path handle.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. Not for hot paths: resolve once and keep the handle.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).counter }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).hist }

// --- registry ---------------------------------------------------------

// Registry holds metric families and renders them. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds a family, panicking on a duplicate name: metric wiring
// is static, and two components claiming one name is a bug that must
// fail loudly at startup, not export garbage forever.
func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[f.name]; ok {
		panic(fmt.Sprintf("telemetry: duplicate metric %s", f.name))
	}
	f.children = make(map[string]*child)
	r.byName[f.name] = f
	r.families = append(r.families, f)
}

// Counter registers and returns an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := &family{name: name, help: help, kind: KindCounter}
	r.register(f)
	return f.child(nil).counter
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, kind: KindCounter, labelNames: labels}
	r.register(f)
	return &CounterVec{f}
}

// Gauge registers and returns an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := &family{name: name, help: help, kind: KindGauge}
	r.register(f)
	return f.child(nil).gauge
}

// Histogram registers and returns an unlabelled histogram (nil buckets
// = DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := &family{name: name, help: help, kind: KindHistogram, buckets: buckets}
	r.register(f)
	return f.child(nil).hist
}

// HistogramVec registers a histogram family with the given label names
// (nil buckets = DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := &family{name: name, help: help, kind: KindHistogram, buckets: buckets, labelNames: labels}
	r.register(f)
	return &HistogramVec{f}
}

// snapshotFamilies copies the family list under the registry lock; the
// per-family child lists are copied under each family's lock. Metric
// values are then read from the atomics without any lock.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	return fams
}

func (f *family) snapshotChildren() []*child {
	f.mu.Lock()
	cs := append([]*child(nil), f.order...)
	f.mu.Unlock()
	return cs
}
