package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters never go down
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Inc()
	g.Dec()
	g.Add(2)
	h.Observe(0.5)
}

// TestHistogramBucketsAndSum pins the layout: bound i is 1µs·2^(i/4),
// bounds are inclusive, and bucket finds, for values on, next to and
// between every bound, the bucket a linear scan would.
func TestHistogramBucketsAndSum(t *testing.T) {
	if bounds[0] != 1e-6 || bounds[4] != 2e-6 || bounds[numBounds-1] != math.Ldexp(1e-6, 31) {
		t.Fatalf("layout: bounds[0]=%g bounds[4]=%g last=%g", bounds[0], bounds[4], bounds[numBounds-1])
	}
	for i := 1; i < numBounds; i++ {
		if r := bounds[i] / bounds[i-1]; math.Abs(r-math.Pow(2, 0.25)) > 1e-12 {
			t.Fatalf("bounds[%d]/bounds[%d] = %v, want 2^(1/4)", i, i-1, r)
		}
	}
	scan := func(v float64) int {
		i := 0
		for i < numBounds && v > bounds[i] {
			i++
		}
		return i
	}
	probes := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-9, 5000}
	for _, b := range bounds {
		probes = append(probes, b, math.Nextafter(b, 0), math.Nextafter(b, 1e9), b*1.1)
	}
	for _, v := range probes {
		if got, want := bucket(v), scan(v); got != want {
			t.Errorf("bucket(%v) = %d, want %d", v, got, want)
		}
	}

	h := &Histogram{}
	vals := []float64{5e-7, 1e-6, 1.1e-6, 1, 5000}
	for _, v := range vals {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 5e-7+1e-6+1.1e-6+1+5000; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	// Raw per-bucket counts: ≤1µs gets 0.5µs and the boundary value 1µs;
	// 1.1µs is in the next bucket (≤1.189µs); 1 s is below 2^20 µs
	// (1.048576 s) but above 2^(19.75) µs; 5000 s overflows.
	want := map[int]uint64{0: 2, 1: 1, 4*19 + 4: 1, numBounds: 1}
	for i := range h.counts {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

// TestHistogramQuantiles checks each quantile of a fixed sample set
// against the exact sorted quantile: the bucket bound may sit above the
// sample by less than one bucket, 2^(1/4)−1 of its value, never below.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := &Histogram{}
	var samples []float64
	for i := 0; i < 5000; i++ {
		// Log-uniform over 2µs .. ~16 s, the range request latencies span.
		v := 2e-6 * math.Exp2(rng.Float64()*23)
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Float64s(samples)
	maxErr := math.Pow(2, 0.25) - 1
	for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		got := h.Quantile(q)
		if rel := (got - exact) / exact; rel < 0 || rel >= maxErr {
			t.Errorf("q%.3f = %v, exact %v: relative error %.4f outside [0, %.4f)", q, got, exact, rel, maxErr)
		}
	}
	empty := &Histogram{}
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	empty.Observe(1e4)
	if got := empty.Quantile(0.5); !math.IsInf(got, 1) {
		t.Errorf("overflow quantile = %v, want +Inf", got)
	}
}

// TestHistogramMergeEqualsOne feeds samples to per-worker histograms and
// checks that their merge equals one histogram fed every sample.
func TestHistogramMergeEqualsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var workers [4]Histogram
	var one, merged Histogram
	for i := 0; i < 4000; i++ {
		v := math.Exp2(rng.Float64()*40 - 25) // 30 ns .. ~9 hours: both edges
		workers[i%len(workers)].Observe(v)
		one.Observe(v)
	}
	for i := range workers {
		merged.Merge(&workers[i])
	}
	for i := range one.counts {
		if a, b := merged.counts[i].Load(), one.counts[i].Load(); a != b {
			t.Errorf("bucket %d: merged %d, one %d", i, a, b)
		}
	}
	if merged.Count() != one.Count() {
		t.Errorf("count: merged %d, one %d", merged.Count(), one.Count())
	}
	if a, b := merged.Sum(), one.Sum(); math.Abs(a-b) > 1e-9*b {
		t.Errorf("sum: merged %v, one %v", a, b)
	}
}

// TestHistogramResolvesMicroseconds: a 20µs predict and an 80µs one,
// a fourfold regression, land in different exported buckets.
func TestHistogramResolvesMicroseconds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "")
	h.Observe(20e-6)
	h.Observe(80e-6)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series := parseExposition(t, sb.String())
	for le, want := range map[string]float64{"1.6e-05": 0, "3.2e-05": 1, "6.4e-05": 1, "0.000128": 2} {
		if got := series[`lat_bucket{le="`+le+`"}`]; got != want {
			t.Errorf("le=%s: cumulative %v, want %v", le, got, want)
		}
	}
}

// TestHistogramConcurrentObserveMerge merges live histograms into one
// while writers observe them; run under -race. After the writers stop,
// a final merge of each worker into a fresh histogram accounts for
// every observation.
func TestHistogramConcurrentObserveMerge(t *testing.T) {
	const writers, per = 4, 2000
	var hs [writers]Histogram
	var into Histogram
	var wg sync.WaitGroup
	for w := range hs {
		wg.Add(1)
		go func(h *Histogram) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100+1) * 1e-5)
			}
		}(&hs[w])
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for w := range hs {
				into.Merge(&hs[w])
			}
		}
	}()
	wg.Wait()
	<-done
	var final Histogram
	for w := range hs {
		final.Merge(&hs[w])
	}
	if got := final.Count(); got != writers*per {
		t.Errorf("merged count = %d, want %d", got, writers*per)
	}
	if got := final.cumulative()[len(exportLE)-1]; got != writers*per {
		t.Errorf("merged +Inf bucket = %d, want %d", got, writers*per)
	}
}

// BenchmarkHistogramObserve times Observe on a typical RPC predict
// latency and on a one-second one.
func BenchmarkHistogramObserve(b *testing.B) {
	for _, c := range []struct {
		name string
		v    float64
	}{{"20us", 20e-6}, {"1s", 1}} {
		b.Run(c.name, func(b *testing.B) {
			h := &Histogram{}
			for i := 0; i < b.N; i++ {
				h.Observe(c.v)
			}
		})
	}
}

func TestVecResolvesStableHandles(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "route", "class")
	a := v.With("/v1/predict", "2xx")
	b := v.With("/v1/predict", "2xx")
	if a != b {
		t.Error("With returned distinct handles for identical labels")
	}
	other := v.With("/v1/topm", "2xx")
	if a == other {
		t.Error("distinct labels share a handle")
	}
	a.Inc()
	a.Inc()
	other.Inc()
	if a.Value() != 2 || other.Value() != 1 {
		t.Errorf("values %d/%d, want 2/1", a.Value(), other.Value())
	}
}

func TestLabelKeyCollisions(t *testing.T) {
	// ("ab","c") and ("a","bc") must resolve to different children.
	r := NewRegistry()
	v := r.CounterVec("x_total", "", "p", "q")
	if v.With("ab", "c") == v.With("a", "bc") {
		t.Error("label tuples collide")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup_total", "")
}

// TestHotPathZeroAlloc is the acceptance gate for the metrics hot
// path: incrementing counters, moving gauges and observing histograms
// through pre-resolved handles must not allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	cv := r.CounterVec("cv_total", "", "route").With("/v1/predict")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "")
	hv := r.HistogramVec("hv", "", "route").With("/v1/predict")
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		cv.Add(2)
		g.Inc()
		g.Dec()
		h.Observe(0.0042)
		h.Observe(20e-6)
		hv.Observe(1)
		hv.Observe(1e5) // overflow
	}); allocs != 0 {
		t.Errorf("hot path allocates %.1f times per run, want 0", allocs)
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "")
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if got, want := h.Sum(), 0.25*workers*per; math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
}

// parseExposition is a strict-enough parser of the text exposition
// format (version 0.0.4) for tests: it validates line structure and
// returns series → value. It rejects lines that do not parse, so a
// formatting regression fails the test rather than vanishing.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := make(map[string]float64)
	typed := make(map[string]string)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			if !strings.Contains(rest, " ") {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, fields[1])
			}
			typed[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
			name = key[:i]
			body := key[i+1 : len(key)-1]
			for _, pair := range splitLabels(body) {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 || len(pair) < eq+3 || pair[eq+1] != '"' || pair[len(pair)-1] != '"' {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok {
				if typed[b] == "histogram" {
					base = b
				}
				break
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("line %d: sample %q has no TYPE header", ln+1, name)
		}
		series[key] = val
	}
	return series
}

// splitLabels splits `a="b",c="d"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	inQuotes, start := false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuotes {
				i++
			}
		case '"':
			inQuotes = !inQuotes
		case ',':
			if !inQuotes {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total", "plain counter").Add(7)
	rv := r.CounterVec("routed_total", "per route", "route")
	rv.With(`/v1/predict`).Add(3)
	rv.With(`weird"label\with
newline`).Inc()
	r.Gauge("depth", "queue depth").Set(-2)
	h := r.Histogram("latency_seconds", "request latency")
	h.Observe(0.0005)
	h.Observe(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series := parseExposition(t, sb.String())

	checks := map[string]float64{
		"plain_total":                              7,
		`routed_total{route="/v1/predict"}`:        3,
		"depth":                                    -2,
		`latency_seconds_bucket{le="0.000256"}`:    0,
		`latency_seconds_bucket{le="0.000512"}`:    1,
		`latency_seconds_bucket{le="0.262144"}`:    1,
		`latency_seconds_bucket{le="0.524288"}`:    2,
		`latency_seconds_bucket{le="2147.483648"}`: 2,
		`latency_seconds_bucket{le="+Inf"}`:        2,
		"latency_seconds_count":                    2,
	}
	for key, want := range checks {
		got, ok := series[key]
		if !ok {
			t.Errorf("series %q missing from exposition:\n%s", key, sb.String())
			continue
		}
		if got != want {
			t.Errorf("series %q = %g, want %g", key, got, want)
		}
	}
	if got := series["latency_seconds_sum"]; math.Abs(got-0.5005) > 1e-9 {
		t.Errorf("latency_seconds_sum = %g, want 0.5005", got)
	}
	// Only the octave bounds are exported: 1µs … 2^31 µs and +Inf.
	if n := strings.Count(sb.String(), "latency_seconds_bucket{"); n != 33 {
		t.Errorf("%d bucket lines, want 33", n)
	}
}

func TestSnapshotAndCounterTotals(t *testing.T) {
	r := NewRegistry()
	rv := r.CounterVec("req_total", "", "route", "class")
	rv.With("/v1/predict", "2xx").Add(9)
	r.Gauge("inflight", "").Set(3)
	h := r.Histogram("lat", "")
	h.Observe(0.5)

	snap := r.Snapshot()
	totals := snap.CounterTotals()
	if got := totals[`req_total{class="2xx",route="/v1/predict"}`]; got != 9 {
		t.Errorf("CounterTotals = %v, want req_total … = 9", totals)
	}
	var found bool
	for _, m := range snap.Metrics {
		if m.Name == "lat" {
			found = true
			if len(m.Values) != 1 || m.Values[0].Count != 1 || m.Values[0].Sum != 0.5 {
				t.Errorf("histogram snapshot %+v", m.Values)
			}
			bs := m.Values[0].Buckets
			if len(bs) != 33 || bs[0].LE != "1e-06" || bs[32].LE != "+Inf" || bs[32].Count != 1 {
				t.Errorf("histogram snapshot buckets %+v, want 33 from 1e-06 to +Inf", bs)
			}
		}
	}
	if !found {
		t.Error("histogram family missing from snapshot")
	}
}
