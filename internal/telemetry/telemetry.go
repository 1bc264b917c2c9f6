// Package telemetry is mltuned's zero-dependency metrics subsystem:
// counters, gauges, and log-bucket latency histograms with a
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

// Histogram is a latency distribution over one fixed log-spaced
// layout shared by every histogram: bucket i's upper bound is
// 1µs·2^(i/4), for i = 0..124, so the last finite bound is 2^31 µs
// (about 36 minutes), plus an overflow (+Inf) bucket. Bounds are
// inclusive (v <= le). A value above 1µs lands in a bucket whose bound
// is less than 2^(1/4) times the value, so Quantile is at most
// 2^(1/4)−1 ≈ 19% above the exact quantile.
//
// Observe is lock-free: one atomic add into the value's bucket, one
// into the count, and a CAS loop folding the value into the float64
// sum. The zero value is ready to use, so a Histogram need not belong
// to a Registry (mlbench keeps one per worker and merges them). A nil
// *Histogram discards observations.
type Histogram struct {
	counts  [numBounds + 1]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

const (
	// bucketsPerOctave is the layout's resolution: each bound is
	// 2^(1/bucketsPerOctave) times the one before.
	bucketsPerOctave = 4
	// numOctaves is how many doublings the finite bounds span above
	// the first, 1µs.
	numOctaves = 31
	numBounds  = numOctaves*bucketsPerOctave + 1
)

// bounds are the finite upper bounds in seconds. Every bucketsPerOctave-th
// one is exactly 1e-6 scaled by a power of two, so the exported octave
// bounds print as 1e-06, 2e-06, 4e-06, ….
var bounds = func() (b [numBounds]float64) {
	for i := range b {
		step := math.Pow(2, float64(i%bucketsPerOctave)/bucketsPerOctave)
		b[i] = math.Ldexp(1e-6*step, i/bucketsPerOctave)
	}
	return b
}()

// bucket returns the index of the first bound >= v, or numBounds for
// the overflow bucket. The binary exponent of v in microseconds names
// its octave; the walk then settles on the exact bound in at most a
// few steps, so no floating-point rounding in that guess can misplace v.
func bucket(v float64) int {
	if !(v > bounds[0]) { // also NaN
		return 0
	}
	if v > bounds[numBounds-1] {
		return numBounds
	}
	// v·1e6 >= 1, so its exponent field is an ordinary biased exponent.
	exp := int(math.Float64bits(v*1e6)>>52) - 1023
	i := max(bucketsPerOctave*exp-1, 0)
	for v > bounds[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucket(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Merge adds o's observations into h. It is safe to call while either
// histogram is being observed; the result then includes some of the
// concurrent observations of o.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.count.Add(o.count.Load())
	h.addSum(o.Sum())
}

// Quantile returns the upper bound of the bucket holding the q-th
// observation (0 < q <= 1): +Inf if that is the overflow bucket, and 0
// when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(total))), 1)
	cum := uint64(0)
	for i := range bounds {
		cum += h.counts[i].Load()
		if cum >= rank {
			return bounds[i]
		}
	}
	return math.Inf(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// exportLE are the `le` labels that exposition and snapshots carry: the
// octave bounds 1µs, 2µs, …, 2^31 µs and +Inf. The fine bounds between
// them are counted but not exported, which keeps a series at 33 bucket
// lines instead of 126; the cumulative count at each octave is exact.
var exportLE = func() (le [numOctaves + 2]string) {
	for k := 0; k <= numOctaves; k++ {
		le[k] = formatFloat(bounds[k*bucketsPerOctave])
	}
	le[numOctaves+1] = "+Inf"
	return le
}()

// cumulative returns the cumulative count at each exportLE bound.
func (h *Histogram) cumulative() (cum [len(exportLE)]uint64) {
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		if i%bucketsPerOctave == 0 {
			cum[i/bucketsPerOctave] = run
		}
	}
	cum[len(cum)-1] = run
	return cum
}

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
		c.hist = &Histogram{}
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

// Histogram registers and returns an unlabelled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := &family{name: name, help: help, kind: KindHistogram}
	r.register(f)
	return f.child(nil).hist
}

// HistogramVec registers a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	f := &family{name: name, help: help, kind: KindHistogram, labelNames: labels}
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
