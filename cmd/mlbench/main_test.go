package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestLatHistEmptyAndOverflow pins mlbench's clamp of the histogram's
// quantiles to the observed maximum: an empty endpoint reads 0, and a
// latency past the histogram's last finite bound reads as the maximum,
// not +Inf.
func TestLatHistEmptyAndOverflow(t *testing.T) {
	r := &epResult{}
	if r.quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	r.observe(0.003)
	if got := r.quantile(1); got != 0.003 {
		t.Errorf("q1.00 = %v, want the observed max 0.003", got)
	}
	r.observe(4000) // beyond the 2^31 µs top bound
	if got := r.quantile(0.99); got != 4000 {
		t.Errorf("overflow quantile %v, want the observed max 4000", got)
	}
}

func TestParseMix(t *testing.T) {
	w, err := parseMix("single=2,batch=1,topm=1")
	if err != nil {
		t.Fatal(err)
	}
	if w[epSingle] != 2 || w[epBatch] != 1 || w[epTopM] != 1 {
		t.Errorf("weights %v", w)
	}
	w, err = parseMix("topm=5")
	if err != nil || w[epTopM] != 5 || w[epSingle] != 0 {
		t.Errorf("partial mix: %v, %v", w, err)
	}
	for _, bad := range []string{"", "single", "single=-1", "predict=1", "single=0,batch=0,topm=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("mix %q: accepted", bad)
		}
	}
}

func TestMixPickCoversWeightedEndpoints(t *testing.T) {
	b := &bench{weights: [numEndpoints]int{2, 1, 0}}
	rng := rand.New(rand.NewSource(1))
	var hits [numEndpoints]int
	for i := 0; i < 3000; i++ {
		hits[b.pick(rng)]++
	}
	if hits[epTopM] != 0 {
		t.Errorf("zero-weight endpoint drawn %d times", hits[epTopM])
	}
	if hits[epSingle] == 0 || hits[epBatch] == 0 {
		t.Errorf("weighted endpoints not all drawn: %v", hits)
	}
	if ratio := float64(hits[epSingle]) / float64(hits[epBatch]); ratio < 1.5 || ratio > 2.5 {
		t.Errorf("2:1 mix drew ratio %v", ratio)
	}
}

func validReport() *Report {
	return &Report{
		Schema: SchemaVersion,
		Run: RunInfo{Addr: "http://x", Benchmark: "convolution", Device: "Intel i7 3770",
			Workers: 2, DurationSeconds: 1, SpaceSize: 1024},
		Endpoints: map[string]EndpointStats{
			"predict_single": {Requests: 10, OK: 8, Shed: 2, AchievedQPS: 10,
				Latency: LatencySummary{P50: 0.001, P95: 0.002, P99: 0.003, Max: 0.004, Mean: 0.001}},
		},
		Daemon: DaemonInfo{MetricsDiff: map[string]float64{}},
	}
}

func TestReportValidate(t *testing.T) {
	if err := validReport().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*Report){
		"wrong schema":   func(r *Report) { r.Schema = "v0" },
		"missing device": func(r *Report) { r.Run.Device = "" },
		"zero space":     func(r *Report) { r.Run.SpaceSize = 0 },
		"no endpoints":   func(r *Report) { r.Endpoints = nil },
		"zero requests": func(r *Report) {
			ep := r.Endpoints["predict_single"]
			ep.Requests = 0
			r.Endpoints["predict_single"] = ep
		},
		"counts disagree": func(r *Report) { ep := r.Endpoints["predict_single"]; ep.OK = 1; r.Endpoints["predict_single"] = ep },
		"unordered quantiles": func(r *Report) {
			ep := r.Endpoints["predict_single"]
			ep.Latency.P95 = 0.0005
			r.Endpoints["predict_single"] = ep
		},
		"missing diff":   func(r *Report) { r.Daemon.MetricsDiff = nil },
		"unknown engine": func(r *Report) { r.Run.Engine = "int4" },
	} {
		r := validReport()
		breakIt(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestClosedLoopHonorsRetryAfter pins the backoff contract: a closed
// loop that is shed sleeps the daemon's Retry-After hint and retries
// the same request shape, counting each attempt in requests/shed and
// the follow-up in retries — so ok+shed+errors == requests still holds.
func TestClosedLoopHonorsRetryAfter(t *testing.T) {
	// Shed the first two predicts with Retry-After: 0 (keep the test
	// fast), then serve everything.
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"shed","kind":"overloaded","retryable":true}`)
			return
		}
		fmt.Fprint(w, `{"seconds":0.001}`)
	}))
	defer ts.Close()

	b := &bench{
		base: ts.URL, benchmark: "convolution", device: "Intel i7 3770",
		spaceSize: 64, batchSize: 4, topM: 5,
		weights: [numEndpoints]int{1, 0, 0},
		client:  ts.Client(),
	}
	results, _ := b.run(1, 0, 100*time.Millisecond, 1)
	r := results[epSingle]
	if r.shed != 2 || r.retries != 2 {
		t.Errorf("shed %d retries %d, want 2 and 2", r.shed, r.retries)
	}
	if r.ok == 0 || r.ok+r.shed+r.errors != r.requests {
		t.Errorf("counts ok %d shed %d errors %d requests %d", r.ok, r.shed, r.errors, r.requests)
	}
}

// TestRetryAfterParsing pins the header handling: delta-seconds parse,
// absent or garbage headers fall back to the 1s default, and non-429
// responses never ask for backoff.
func TestRetryAfterParsing(t *testing.T) {
	mk := func(code int, header string) *http.Response {
		resp := &http.Response{StatusCode: code, Header: make(http.Header)}
		if header != "" {
			resp.Header.Set("Retry-After", header)
		}
		return resp
	}
	for _, tc := range []struct {
		code   int
		header string
		want   time.Duration
	}{
		{http.StatusTooManyRequests, "3", 3 * time.Second},
		{http.StatusTooManyRequests, "0", 0},
		{http.StatusTooManyRequests, "", defaultRetryAfter},
		{http.StatusTooManyRequests, "soon", defaultRetryAfter},
		{http.StatusTooManyRequests, "-1", defaultRetryAfter},
		{http.StatusOK, "5", 0},
		{http.StatusServiceUnavailable, "5", 0},
	} {
		if got := retryAfter(mk(tc.code, tc.header)); got != tc.want {
			t.Errorf("retryAfter(%d, %q) = %v, want %v", tc.code, tc.header, got, tc.want)
		}
	}
}

// TestReportValidateRetries pins the additive-field contract.
func TestReportValidateRetries(t *testing.T) {
	r := validReport()
	ep := r.Endpoints["predict_single"]
	ep.Retries = ep.Shed // every shed retried: fine
	r.Endpoints["predict_single"] = ep
	if err := r.Validate(); err != nil {
		t.Errorf("retries == shed rejected: %v", err)
	}
	ep.Retries = ep.Shed + 1
	r.Endpoints["predict_single"] = ep
	if err := r.Validate(); err == nil {
		t.Error("retries > shed accepted")
	}
}
