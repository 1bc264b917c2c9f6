package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/telemetry"
)

// metricsTestServer builds a server with one trained convolution model
// so the predict path answers 200s.
func metricsTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := reg.Put(key, trainTinyModel(t, 7)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 1, 4, opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// counterTotal reads one counter series from the live registry.
func counterTotal(t *testing.T, srv *Server, series string) float64 {
	t.Helper()
	v, ok := srv.Metrics().Snapshot().CounterTotals()[series]
	if !ok {
		return 0
	}
	return v
}

// histCount reads one histogram series' observation count.
func histCount(t *testing.T, srv *Server, name string, labels map[string]string) uint64 {
	t.Helper()
	for _, m := range srv.Metrics().Snapshot().Metrics {
		if m.Name != name {
			continue
		}
		for _, v := range m.Values {
			match := true
			for ln, lv := range labels {
				if v.Labels[ln] != lv {
					match = false
					break
				}
			}
			if match {
				return v.Count
			}
		}
	}
	return 0
}

// gaugeValue reads one unlabelled gauge from the live registry.
func gaugeValue(t *testing.T, srv *Server, name string) float64 {
	t.Helper()
	for _, m := range srv.Metrics().Snapshot().Metrics {
		if m.Name == name && len(m.Values) > 0 {
			return m.Values[0].Value
		}
	}
	t.Fatalf("gauge %s not found", name)
	return 0
}

// TestPredictShedHammer saturates the -max-inflight read path and
// checks the shed contract end to end: over-limit requests get 429 with
// a Retry-After hint and a machine-readable body, every shed and every
// success is counted exactly once, and the route's latency histogram
// observed every request (shed ones included).
func TestPredictShedHammer(t *testing.T) {
	const limit = 3
	srv, ts := metricsTestServer(t, WithMaxInflight(limit))
	client := ts.Client()
	predictURL := ts.URL + "/v1/predict?benchmark=convolution&device=" + devQ + "&index=7"
	get := func() *http.Response {
		resp, err := client.Get(predictURL)
		if err != nil {
			t.Error(err)
			return nil
		}
		return resp
	}

	// Phase 1, deterministic: pin `limit` requests inside the handler so
	// every slot is provably held, then watch the next requests shed.
	gate := make(chan struct{})
	entered := make(chan struct{}, limit)
	srv.testHookPredict = func() { entered <- struct{}{}; <-gate }
	var holders sync.WaitGroup
	holderCodes := make(chan int, limit)
	for i := 0; i < limit; i++ {
		holders.Add(1)
		go func() {
			defer holders.Done()
			if resp := get(); resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				holderCodes <- resp.StatusCode
			}
		}()
	}
	for i := 0; i < limit; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("holders did not reach the handler")
		}
	}

	const shedWave = 5
	for i := 0; i < shedWave; i++ {
		resp := get()
		if resp == nil {
			t.Fatal("shed request failed")
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated predict: status %d, want 429", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != retryAfterHintStr {
			t.Errorf("shed Retry-After %q, want %q", got, retryAfterHintStr)
		}
		var ae Error
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ae.Kind != errKindOverloaded || !ae.Retryable {
			t.Errorf("shed body %+v, want kind %q retryable", ae, errKindOverloaded)
		}
	}
	close(gate)
	holders.Wait()
	close(holderCodes)
	for code := range holderCodes {
		if code != http.StatusOK {
			t.Errorf("held predict finished %d, want 200", code)
		}
	}
	srv.testHookPredict = nil

	// Phase 2, storm: concurrent clients race the semaphore for real
	// while a snapshotter reads the registry mid-flight (the -race run
	// exercises reader/writer interleavings). Every response must be a
	// counted 200 or a counted 429 — nothing dropped, nothing doubled.
	const (
		stormWorkers  = 8
		stormRequests = 50
	)
	var ok200, shed429, other atomic.Int64
	stopSnap := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stopSnap:
				return
			default:
				srv.Metrics().Snapshot().CounterTotals()
			}
		}
	}()
	var storm sync.WaitGroup
	for w := 0; w < stormWorkers; w++ {
		storm.Add(1)
		go func() {
			defer storm.Done()
			for i := 0; i < stormRequests; i++ {
				resp := get()
				if resp == nil {
					other.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					shed429.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	storm.Wait()
	close(stopSnap)
	snapWG.Wait()
	if other.Load() != 0 {
		t.Fatalf("%d storm responses were neither 200 nor 429", other.Load())
	}
	if got := ok200.Load() + shed429.Load(); got != stormWorkers*stormRequests {
		t.Fatalf("storm accounted for %d responses, want %d", got, stormWorkers*stormRequests)
	}

	// Exact accounting across both phases.
	const route = "GET /v1/predict"
	totalRequests := float64(limit + shedWave + stormWorkers*stormRequests)
	totalShed := float64(shedWave) + float64(shed429.Load())
	totalOK := float64(limit) + float64(ok200.Load())
	if got := counterTotal(t, srv, `mltuned_http_requests_total{route="`+route+`"}`); got != totalRequests {
		t.Errorf("requests_total %v, want %v", got, totalRequests)
	}
	if got := counterTotal(t, srv, `mltuned_shed_total{route="`+route+`"}`); got != totalShed {
		t.Errorf("shed_total %v, want %v", got, totalShed)
	}
	if got := counterTotal(t, srv, `mltuned_http_responses_total{class="2xx",route="`+route+`"}`); got != totalOK {
		t.Errorf("2xx responses %v, want %v", got, totalOK)
	}
	if got := counterTotal(t, srv, `mltuned_http_responses_total{class="4xx",route="`+route+`"}`); got != totalShed {
		t.Errorf("4xx responses %v, want %v", got, totalShed)
	}
	// The latency histogram saw every request: shed ones flow through the
	// instrumentation too, so its count equals the request counter.
	if got := histCount(t, srv, "mltuned_http_request_duration_seconds",
		map[string]string{"route": route}); float64(got) != totalRequests {
		t.Errorf("latency histogram count %d, want %v", got, totalRequests)
	}
	// Both in-flight gauges drained back to zero.
	if got := gaugeValue(t, srv, "mltuned_read_inflight"); got != 0 {
		t.Errorf("read_inflight %v after the hammer, want 0", got)
	}
	if got := gaugeValue(t, srv, "mltuned_http_inflight_requests"); got != 0 {
		t.Errorf("http inflight %v after the hammer, want 0", got)
	}
}

// TestQueueErrorResponses pins the submit-rejection contract: a full
// queue is retryable (503 + Retry-After + kind queue_full), a draining
// queue is not (503, no Retry-After, kind queue_closed).
func TestQueueErrorResponses(t *testing.T) {
	w := httptest.NewRecorder()
	writeAPIError(w, ErrQueueFull)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("queue-full status %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != retryAfterHintStr {
		t.Errorf("queue-full Retry-After %q, want %q", got, retryAfterHintStr)
	}
	var ae Error
	if err := json.Unmarshal(w.Body.Bytes(), &ae); err != nil {
		t.Fatal(err)
	}
	if ae.Kind != errKindQueueFull || !ae.Retryable {
		t.Errorf("queue-full body %+v, want kind %q retryable", ae, errKindQueueFull)
	}

	w = httptest.NewRecorder()
	writeAPIError(w, ErrQueueClosed)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("queue-closed status %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "" {
		t.Errorf("queue-closed Retry-After %q, want none (do not retry a draining daemon)", got)
	}
	ae = Error{}
	if err := json.Unmarshal(w.Body.Bytes(), &ae); err != nil {
		t.Fatal(err)
	}
	if ae.Kind != errKindQueueClosed || ae.Retryable {
		t.Errorf("queue-closed body %+v, want kind %q not retryable", ae, errKindQueueClosed)
	}
}

// TestReadyzSplitsFromHealthz checks the liveness/readiness split: both
// answer 200 on a healthy daemon, and once draining begins /readyz
// flips to 503 while /healthz stays 200 (alive, just not routable).
func TestReadyzSplitsFromHealthz(t *testing.T) {
	srv, ts := metricsTestServer(t)
	client := ts.Client()

	var rd Readiness
	jget(t, client, ts.URL, "/readyz", http.StatusOK, &rd)
	if !rd.Ready {
		t.Errorf("fresh daemon readiness %+v, want ready", rd)
	}
	jget(t, client, ts.URL, "/healthz", http.StatusOK, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rd = Readiness{}
	jget(t, client, ts.URL, "/readyz", http.StatusServiceUnavailable, &rd)
	if rd.Ready || !strings.Contains(rd.Reason, "draining") {
		t.Errorf("draining readiness %+v, want not ready with a draining reason", rd)
	}
	jget(t, client, ts.URL, "/healthz", http.StatusOK, nil)
}

// TestQueueAtCapacityReadiness checks the backlog-full readiness signal
// at the queue level: a full backlog reports AtCapacity until a worker
// frees a slot.
func TestQueueAtCapacityReadiness(t *testing.T) {
	release := make(chan struct{})
	q := NewQueue(1, 1, func(ctx context.Context, j *Job) {
		<-release
		j.finish(&core.Result{Strategy: j.Spec.Strategy}, false, nil)
	}, nil)
	defer func() {
		close(release)
		q.Drain(context.Background())
	}()

	if q.AtCapacity() {
		t.Fatal("empty queue reports AtCapacity")
	}
	spec := JobSpec{Benchmark: "convolution", Device: devsim.IntelI7, Strategy: "ml"}
	running, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick the first job up, then fill the
	// backlog slot behind it.
	deadline := time.Now().Add(5 * time.Second)
	for running.State() == JobQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := q.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if !q.AtCapacity() {
		t.Error("full backlog does not report AtCapacity")
	}
	if q.Draining() {
		t.Error("open queue reports Draining")
	}
}

// expositionLine matches one Prometheus text-format sample line.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[+-]?[0-9.eE+-]+)$`)

// TestMetricsEndpoint drives real traffic through the daemon and
// scrapes GET /metrics, checking the content type, the line format and
// that the core series counted that traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := metricsTestServer(t)
	client := ts.Client()

	jget(t, client, ts.URL, "/healthz", http.StatusOK, nil)
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=7", http.StatusOK, nil)
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=8", http.StatusOK, nil)

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != telemetry.ContentType {
		t.Errorf("Content-Type %q, want %q", got, telemetry.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE mltuned_http_requests_total counter",
		"# TYPE mltuned_http_request_duration_seconds histogram",
		"# TYPE mltuned_queue_depth gauge",
		`mltuned_http_requests_total{route="GET /healthz"} 1`,
		`mltuned_http_requests_total{route="GET /v1/predict"} 2`,
		`mltuned_serve_cache_hits_total 1`,
		`mltuned_model_loads_total 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("GET /metrics is missing %q", want)
		}
	}
}

// TestStatsEndpoint checks the JSON twin of /metrics: the snapshot
// carries the same counters the exposition does, plus the health
// counters and the configured in-flight bound.
func TestStatsEndpoint(t *testing.T) {
	_, ts := metricsTestServer(t, WithMaxInflight(17))
	client := ts.Client()
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=7", http.StatusOK, nil)

	var st StatsResponse
	jget(t, client, ts.URL, "/v1/stats", http.StatusOK, &st)
	if st.MaxInflight != 17 {
		t.Errorf("max_inflight %d, want 17", st.MaxInflight)
	}
	if st.Models != 1 {
		t.Errorf("models %d, want 1", st.Models)
	}
	totals := st.Telemetry.CounterTotals()
	if got := totals[`mltuned_http_requests_total{route="GET /v1/predict"}`]; got != 1 {
		t.Errorf("snapshot predict requests %v, want 1", got)
	}
	if _, ok := totals["mltuned_jobs_submitted_total"]; !ok {
		t.Error("snapshot is missing mltuned_jobs_submitted_total")
	}
}

// TestTopMSweepCounters pins the sweep counters: a cold top-M adds the
// sweep's exact passes and the space size, a cache hit adds to neither,
// and /v1/stats carries both.
func TestTopMSweepCounters(t *testing.T) {
	_, ts := metricsTestServer(t)
	client := ts.Client()
	model := trainTinyModel(t, 7)
	want := model.TopMIncremental(5, nil).Scored

	read := func() (exact, swept float64) {
		t.Helper()
		var st StatsResponse
		jget(t, client, ts.URL, "/v1/stats", http.StatusOK, &st)
		totals := st.Telemetry.CounterTotals()
		return totals["mltuned_topm_exact_passes_total"], totals["mltuned_topm_swept_configs_total"]
	}
	if exact, swept := read(); exact != 0 || swept != 0 {
		t.Fatalf("before any top-M: exact %v, swept %v", exact, swept)
	}
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, nil)
	exact, swept := read()
	if exact != float64(want) || swept != float64(model.Space().Size()) {
		t.Fatalf("after a cold top-M: exact %v, swept %v; want %d and %d",
			exact, swept, want, model.Space().Size())
	}
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, nil)
	if e, s := read(); e != exact || s != swept {
		t.Fatalf("a cache hit moved the sweep counters: exact %v → %v, swept %v → %v", exact, e, swept, s)
	}
}

// TestStoreAndRegistryMetrics drives the sample store and registry
// through a server and checks the wiring end to end: appends, corrupt
// lines and lazy disk loads all land in the daemon's registry.
func TestStoreAndRegistryMetrics(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := reg.Put(key, trainTinyModel(t, 7)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 1, 4)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := ts.Client()

	// Put cached the model in memory, so the first predict is not a disk
	// load; a reload drops the cache and the next predict pays one.
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=7", http.StatusOK, nil)
	if got := counterTotal(t, srv, "mltuned_model_loads_total"); got != 0 {
		t.Errorf("model loads after cached predict %v, want 0", got)
	}
	resp, err := client.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=7", http.StatusOK, nil)
	if got := counterTotal(t, srv, "mltuned_model_loads_total"); got != 1 {
		t.Errorf("model loads after reload+predict %v, want 1", got)
	}

	// Ingest two records; one corrupt line sneaks into the file before
	// the store first reads it back.
	body := fmt.Sprintf(`{"benchmark":"convolution","device":%q,"samples":[{"index":7,"seconds":0.5},{"index":8,"seconds":0.25}]}`, devsim.IntelI7)
	resp, err = client.Post(ts.URL+"/v1/samples", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if got := counterTotal(t, srv, "mltuned_samples_appended_total"); got != 2 {
		t.Errorf("samples appended %v, want 2", got)
	}

	// A sample file with damaged lines (a crash-truncated write, an
	// out-of-range index) loads with the survivors served and the
	// casualties counted.
	k40 := ModelKey{Benchmark: "convolution", Device: devsim.NvidiaK40}
	damaged := "{\"index\":1,\"seconds\":0.5}\n{not json\n{\"index\":-3,\"seconds\":1}\n"
	if err := os.WriteFile(filepath.Join(srv.Samples().Dir(), k40.sampleFileName()), []byte(damaged), 0o644); err != nil {
		t.Fatal(err)
	}
	var count struct {
		Records int `json:"records"`
	}
	jget(t, client, ts.URL, "/v1/samples?benchmark=convolution&device="+url.QueryEscape(devsim.NvidiaK40),
		http.StatusOK, &count)
	if count.Records != 1 {
		t.Errorf("damaged set served %d records, want 1", count.Records)
	}
	if got := counterTotal(t, srv, "mltuned_sample_corrupt_lines_total"); got != 2 {
		t.Errorf("corrupt lines %v, want 2", got)
	}
}
