// Command mlbench is the mltuned load generator: it drives a live
// daemon's read path (GET/POST /v1/predict, GET /v1/topm) with a
// configurable worker pool and request mix, measures client-side
// latency into per-worker HDR-style histograms, and writes a
// machine-readable BENCH_serve.json report (schema "mltuned-bench/v1")
// with p50/p95/p99/max latency and achieved QPS per endpoint, plus the
// daemon's own metrics-counter deltas over the run.
//
// Usage:
//
//	mlbench [-addr http://127.0.0.1:8372] [-benchmark convolution]
//	        [-device "Intel i7 3770"] [-workers 4] [-qps 0]
//	        [-duration 10s] [-warmup 2s] [-mix single=2,batch=1,topm=1]
//	        [-batch-size 16] [-m 10] [-seed 1] [-out BENCH_serve.json]
//	        [-proto http|rpc] [-rpc-addr 127.0.0.1:9372]
//	mlbench -validate BENCH_serve.json
//
// -proto rpc drives the same mix over the daemon's binary RPC plane
// (-rpc-addr must name its RPC listener) through the pooled
// internal/service/rpcclient; probe and stats still go over HTTP, so
// -addr stays required. The report records proto and rpc_addr, letting
// BENCH_serve.json (HTTP) and BENCH_rpc.json (RPC) sit side by side.
//
// With -qps 0 the loop is closed: each worker re-issues the next
// request as soon as the previous response lands, measuring the
// daemon's capacity. A closed-loop worker that is shed (429) honors the
// daemon's Retry-After hint — sleep, then retry the same request shape
// — instead of hammering the 429 path; retried attempts count in the
// report's requests/shed as always, plus an additive retries field.
// With -qps N the loop is open: requests are paced globally at N per
// second regardless of response times, measuring latency at a fixed
// offered load (the honest way to observe queueing delay). The warmup
// phase runs the same mix but discards its numbers, so cold caches
// (model load, scratch pools, top-M sweeps) do not pollute the report.
//
// The daemon must already serve a model for the benchmark/device pair;
// the e2e smoke script trains one first. -validate checks an existing
// report against the schema and exits, so CI can gate on report shape
// without re-running load.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/service/rpcclient"
	"repro/internal/telemetry"
)

// endpoint identifies one request shape in the mix.
type endpoint int

const (
	epSingle endpoint = iota // GET /v1/predict, one random index
	epBatch                  // POST /v1/predict, -batch-size random indices
	epTopM                   // GET /v1/topm?m=-m
	numEndpoints
)

// endpointNames are the report keys. The top-M endpoint reports as
// topm_cached because it measures cache hits, not a full-space sweep:
// the daemon caches each model's top-M answer, so past the warmup
// nearly every request is a cache hit (the committed baselines show
// mltuned_topm_cache_hits_total equal to the request count). The -mix
// alias stays "topm".
var endpointNames = [numEndpoints]string{"predict_single", "predict_batch", "topm_cached"}

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8372", "daemon base URL")
		benchmark = flag.String("benchmark", "convolution", "benchmark to query")
		device    = flag.String("device", "Intel i7 3770", "device to query")
		workers   = flag.Int("workers", 4, "concurrent client workers")
		qps       = flag.Float64("qps", 0, "offered load in requests/second across all workers (0 = closed loop)")
		duration  = flag.Duration("duration", 10*time.Second, "measure-phase length")
		warmup    = flag.Duration("warmup", 2*time.Second, "warmup length (same mix, numbers discarded)")
		mix       = flag.String("mix", "single=2,batch=1,topm=1", "request mix weights: single=W,batch=W,topm=W")
		batchSize = flag.Int("batch-size", 16, "indices per POST /v1/predict batch")
		topM      = flag.Int("m", 10, "M for /v1/topm requests")
		seed      = flag.Int64("seed", 1, "index-stream seed (per worker: seed+worker)")
		out       = flag.String("out", "BENCH_serve.json", "report output path")
		validate  = flag.String("validate", "", "validate an existing report file and exit")
		proto     = flag.String("proto", "http", "load protocol: http (the JSON API) or rpc (the binary plane on -rpc-addr)")
		rpcAddr   = flag.String("rpc-addr", "127.0.0.1:9372", "daemon RPC address, used with -proto rpc")
	)
	flag.Parse()

	if *validate != "" {
		if err := validateFile(*validate); err != nil {
			fmt.Fprintln(os.Stderr, "mlbench: invalid report:", err)
			os.Exit(1)
		}
		fmt.Printf("mlbench: %s conforms to %s\n", *validate, SchemaVersion)
		return
	}

	weights, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlbench:", err)
		os.Exit(1)
	}
	if *workers < 1 || *duration <= 0 || *batchSize < 1 || *topM < 1 {
		fmt.Fprintln(os.Stderr, "mlbench: workers, duration, batch-size and m must be positive")
		os.Exit(1)
	}

	b := &bench{
		base:      strings.TrimRight(*addr, "/"),
		benchmark: *benchmark,
		device:    *device,
		batchSize: *batchSize,
		topM:      *topM,
		weights:   weights,
		proto:     *proto,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        *workers + 2,
				MaxIdleConnsPerHost: *workers + 2,
			},
		},
	}
	switch *proto {
	case "http":
	case "rpc":
		b.rpcAddr = *rpcAddr
		b.rpc = rpcclient.New(*rpcAddr, rpcclient.WithMaxIdle(*workers+2))
		defer b.rpc.Close()
	default:
		fmt.Fprintf(os.Stderr, "mlbench: -proto %q is not http or rpc\n", *proto)
		os.Exit(1)
	}

	info, err := b.probe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlbench:", err)
		os.Exit(1)
	}
	b.spaceSize = info.spaceSize
	engineDesc := info.engine
	if engineDesc == "" {
		engineDesc = "unreported"
	}
	target := b.base
	if b.proto == "rpc" {
		target = "rpc://" + b.rpcAddr
	}
	fmt.Printf("mlbench: %s %s@%s, space %d, engine %s, %d workers, mix %s, %s\n",
		target, b.benchmark, b.device, info.spaceSize, engineDesc, *workers, *mix, loopDesc(*qps))

	if *warmup > 0 {
		b.run(*workers, *qps, *warmup, *seed)
	}
	before, err := b.stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlbench:", err)
		os.Exit(1)
	}
	started := time.Now()
	results, elapsed := b.run(*workers, *qps, *duration, *seed+int64(*workers))
	after, err := b.stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlbench:", err)
		os.Exit(1)
	}

	report := &Report{
		Schema: SchemaVersion,
		Run: RunInfo{
			Addr:            b.base,
			Benchmark:       b.benchmark,
			Device:          b.device,
			Workers:         *workers,
			TargetQPS:       *qps,
			DurationSeconds: elapsed.Seconds(),
			WarmupSeconds:   warmup.Seconds(),
			BatchSize:       *batchSize,
			TopM:            *topM,
			SpaceSize:       info.spaceSize,
			Started:         started.UTC().Format(time.RFC3339),
			Engine:          info.engine,
			WeightFormat:    info.weightFormat,
			Proto:           b.proto,
			RPCAddr:         b.rpcAddr,
		},
		Endpoints: make(map[string]EndpointStats),
		Daemon:    DaemonInfo{MetricsDiff: diffCounters(before, after)},
	}
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		r := results[ep]
		if r.requests == 0 {
			continue
		}
		report.Endpoints[endpointNames[ep]] = EndpointStats{
			Requests:    r.requests,
			OK:          r.ok,
			Shed:        r.shed,
			Errors:      r.errors,
			Retries:     r.retries,
			AchievedQPS: float64(r.requests) / elapsed.Seconds(),
			Latency: LatencySummary{
				P50:  r.hist.quantile(0.50),
				P95:  r.hist.quantile(0.95),
				P99:  r.hist.quantile(0.99),
				Max:  r.hist.max,
				Mean: r.hist.sum / float64(r.hist.total),
			},
		}
	}
	if err := report.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "mlbench: generated report failed validation:", err)
		os.Exit(1)
	}
	doc, _ := json.MarshalIndent(report, "", "  ")
	doc = append(doc, '\n')
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "mlbench:", err)
		os.Exit(1)
	}
	printSummary(report)
	fmt.Printf("mlbench: wrote %s\n", *out)
}

func loopDesc(qps float64) string {
	if qps > 0 {
		return fmt.Sprintf("open loop @ %g req/s", qps)
	}
	return "closed loop"
}

// parseMix parses "single=2,batch=1,topm=1" into per-endpoint weights.
func parseMix(s string) ([numEndpoints]int, error) {
	var w [numEndpoints]int
	aliases := map[string]endpoint{"single": epSingle, "batch": epBatch, "topm": epTopM}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return w, fmt.Errorf("mix part %q is not name=weight", part)
		}
		ep, ok := aliases[name]
		if !ok {
			return w, fmt.Errorf("mix names one of single, batch, topm; got %q", name)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return w, fmt.Errorf("mix weight %q is not a non-negative integer", val)
		}
		w[ep] = n
	}
	total := 0
	for _, n := range w {
		total += n
	}
	if total == 0 {
		return w, fmt.Errorf("mix %q has zero total weight", s)
	}
	return w, nil
}

// bench holds the run-wide request-building state.
type bench struct {
	base      string
	benchmark string
	device    string
	spaceSize int64
	batchSize int
	topM      int
	weights   [numEndpoints]int
	client    *http.Client
	// proto selects the load transport; with "rpc" the mix goes through
	// rpc (a pooled rpcclient.Client against rpcAddr) while probe and
	// stats stay on the HTTP client above.
	proto   string
	rpcAddr string
	rpc     *rpcclient.Client
}

// epResult is one endpoint's aggregate.
type epResult struct {
	requests uint64
	ok       uint64
	shed     uint64
	errors   uint64
	// retries counts shed (429) responses the closed loop followed up by
	// honoring Retry-After and re-issuing the same request shape. Every
	// retried attempt still counts in requests and shed, so the
	// ok+shed+errors == requests invariant is unchanged.
	retries uint64
	hist    *latHist
}

// probeInfo is what probe learns about the daemon before load starts.
type probeInfo struct {
	spaceSize int64
	// engine is the daemon's read-path inference engine (from the model
	// listing; "" against daemons that predate the field), weightFormat
	// the served model's persistence version (0 when unreported). Both
	// flow into the report's run block as additive detail.
	engine       string
	weightFormat int
}

// probe checks the daemon serves the benchmark/device pair (one predict,
// which also loads the model so the warmup starts warm-ish) and reads
// the tuning-space size, serving engine and model weight format from the
// model listing. Falling back to space size 1024 keeps the tool usable
// against daemons whose listing omits the size.
func (b *bench) probe() (probeInfo, error) {
	var info probeInfo
	resp, err := b.client.Get(b.singleURL(0))
	if err != nil {
		return info, fmt.Errorf("probing %s: %w (is mltuned running?)", b.base, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("probe predict returned %d: train a model for %s@%s first",
			resp.StatusCode, b.benchmark, b.device)
	}
	resp, err = b.client.Get(b.base + "/v1/models?benchmark=" + url.QueryEscape(b.benchmark))
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	var listing struct {
		Engine string `json:"engine"`
		Models []struct {
			Device       string `json:"device"`
			SpaceSize    int64  `json:"space_size"`
			WeightFormat int    `json:"weight_format"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return info, fmt.Errorf("decoding model listing: %w", err)
	}
	info.engine = listing.Engine
	for _, m := range listing.Models {
		if m.SpaceSize > 0 && (m.Device == b.device || info.spaceSize == 0) {
			info.spaceSize = m.SpaceSize
			info.weightFormat = m.WeightFormat
		}
	}
	if info.spaceSize == 0 {
		info.spaceSize = 1024
	}
	return info, nil
}

func (b *bench) singleURL(idx int64) string {
	return b.base + "/v1/predict?benchmark=" + url.QueryEscape(b.benchmark) +
		"&device=" + url.QueryEscape(b.device) + "&index=" + strconv.FormatInt(idx, 10)
}

func (b *bench) topMURL() string {
	return b.base + "/v1/topm?benchmark=" + url.QueryEscape(b.benchmark) +
		"&device=" + url.QueryEscape(b.device) + "&m=" + strconv.Itoa(b.topM)
}

// pick draws an endpoint according to the mix weights.
func (b *bench) pick(rng *rand.Rand) endpoint {
	total := 0
	for _, w := range b.weights {
		total += w
	}
	n := rng.Intn(total)
	for ep, w := range b.weights {
		if n < w {
			return endpoint(ep)
		}
		n -= w
	}
	return epSingle
}

// issue sends one request of the given shape and returns its status
// code plus the server's Retry-After backoff hint (zero when absent);
// any transport error reports as status 0.
func (b *bench) issue(ep endpoint, rng *rand.Rand) (int, time.Duration) {
	if b.proto == "rpc" {
		return b.issueRPC(ep, rng)
	}
	var resp *http.Response
	var err error
	switch ep {
	case epSingle:
		resp, err = b.client.Get(b.singleURL(rng.Int63n(b.spaceSize)))
	case epBatch:
		indices := make([]int64, b.batchSize)
		for i := range indices {
			indices[i] = rng.Int63n(b.spaceSize)
		}
		body, _ := json.Marshal(struct {
			Benchmark string  `json:"benchmark"`
			Device    string  `json:"device"`
			Indices   []int64 `json:"indices"`
		}{b.benchmark, b.device, indices})
		resp, err = b.client.Post(b.base+"/v1/predict", "application/json", bytes.NewReader(body))
	case epTopM:
		resp, err = b.client.Get(b.topMURL())
	}
	if err != nil {
		return 0, 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, retryAfter(resp)
}

// issueRPC is issue over the binary plane. Typed service errors map to
// the same status codes the HTTP adapter would have answered (so the
// shed/retry accounting and the closed loop's Retry-After handling are
// transport-independent); transport errors report as status 0.
func (b *bench) issueRPC(ep endpoint, rng *rand.Rand) (int, time.Duration) {
	var err error
	switch ep {
	case epSingle:
		_, err = b.rpc.Predict(&service.PredictRequest{
			Benchmark: b.benchmark, Device: b.device,
			HasIndex: true, Index: rng.Int63n(b.spaceSize),
		})
	case epBatch:
		indices := make([]int64, b.batchSize)
		for i := range indices {
			indices[i] = rng.Int63n(b.spaceSize)
		}
		_, err = b.rpc.PredictBatch(&service.PredictBatchRequest{
			Benchmark: b.benchmark, Device: b.device, Indices: indices,
		})
	case epTopM:
		_, err = b.rpc.TopM(&service.TopMRequest{
			Benchmark: b.benchmark, Device: b.device, M: b.topM,
		})
	}
	if err == nil {
		return http.StatusOK, 0
	}
	var se *service.Error
	if !errors.As(err, &se) {
		return 0, 0
	}
	backoff := time.Duration(0)
	if se.HTTPStatus() == http.StatusTooManyRequests {
		backoff = defaultRetryAfter
		if se.RetryAfterSeconds > 0 {
			backoff = time.Duration(se.RetryAfterSeconds) * time.Second
		}
	}
	return se.HTTPStatus(), backoff
}

// defaultRetryAfter backs off shed responses that carry no (or an
// unparseable) Retry-After header.
const defaultRetryAfter = time.Second

// retryAfter parses a 429's Retry-After header (delta-seconds form, the
// only form mltuned emits).
func retryAfter(resp *http.Response) time.Duration {
	if resp.StatusCode != http.StatusTooManyRequests {
		return 0
	}
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return defaultRetryAfter
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return defaultRetryAfter
	}
	return time.Duration(secs) * time.Second
}

// run drives one phase of load and returns the merged per-endpoint
// results plus the measured wall-clock elapsed. Closed loop (qps 0):
// every worker re-issues immediately. Open loop: workers share a paced
// ticket stream, so the offered load is qps regardless of worker count
// or response times (up to the point every worker is stuck waiting).
func (b *bench) run(workers int, qps float64, d time.Duration, seed int64) ([numEndpoints]*epResult, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var tickets atomic.Int64
	perWorker := make([][numEndpoints]*epResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			var res [numEndpoints]*epResult
			for ep := range res {
				res[ep] = &epResult{hist: newLatHist()}
			}
			perWorker[w] = res
			// retryEp pins the next iteration to the endpoint a 429 shed,
			// so the closed loop retries the same request shape after
			// honoring Retry-After instead of rolling a fresh one.
			retryEp, retrying := epSingle, false
			for {
				if qps > 0 {
					due := start.Add(time.Duration(float64(tickets.Add(1)-1) / qps * float64(time.Second)))
					if due.After(deadline) {
						return
					}
					time.Sleep(time.Until(due))
				} else if !time.Now().Before(deadline) {
					return
				}
				ep := b.pick(rng)
				if retrying {
					ep, retrying = retryEp, false
				}
				t0 := time.Now()
				code, backoff := b.issue(ep, rng)
				lat := time.Since(t0).Seconds()
				r := res[ep]
				r.requests++
				r.hist.observe(lat)
				switch {
				case code == http.StatusOK:
					r.ok++
				case code == http.StatusTooManyRequests:
					r.shed++
					// Closed loop: the daemon asked for backoff, so hammering
					// it again immediately would only measure its 429 path.
					// Sleep the hint (never past the deadline) and retry the
					// same shape. Open loop leaves pacing to the tickets —
					// its offered load is the point of the measurement.
					if qps == 0 {
						if wait := time.Until(deadline); backoff > wait {
							backoff = wait
						}
						if backoff > 0 {
							time.Sleep(backoff)
						}
						r.retries++
						retryEp, retrying = ep, true
					}
				default:
					r.errors++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var merged [numEndpoints]*epResult
	for ep := range merged {
		merged[ep] = &epResult{hist: newLatHist()}
	}
	for _, res := range perWorker {
		for ep, r := range res {
			merged[ep].requests += r.requests
			merged[ep].ok += r.ok
			merged[ep].shed += r.shed
			merged[ep].errors += r.errors
			merged[ep].retries += r.retries
			merged[ep].hist.merge(r.hist)
		}
	}
	return merged, elapsed
}

// stats fetches the daemon's counter totals from GET /v1/stats.
func (b *bench) stats() (map[string]float64, error) {
	resp, err := b.client.Get(b.base + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("fetching /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats returned %d", resp.StatusCode)
	}
	var st struct {
		Telemetry telemetry.Snapshot `json:"telemetry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st.Telemetry.CounterTotals(), nil
}

// diffCounters returns after-minus-before, keeping only series that
// moved during the run.
func diffCounters(before, after map[string]float64) map[string]float64 {
	diff := make(map[string]float64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			diff[k] = d
		}
	}
	return diff
}

func validateFile(path string) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r Report
	if err := json.Unmarshal(doc, &r); err != nil {
		return err
	}
	return r.Validate()
}

func printSummary(r *Report) {
	names := make([]string, 0, len(r.Endpoints))
	for name := range r.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-16s %9s %9s %6s %6s %6s %9s %9s %9s %9s\n",
		"endpoint", "requests", "qps", "shed", "retry", "errs", "p50", "p95", "p99", "max")
	for _, name := range names {
		ep := r.Endpoints[name]
		fmt.Printf("%-16s %9d %9.1f %6d %6d %6d %8.2fms %8.2fms %8.2fms %8.2fms\n",
			name, ep.Requests, ep.AchievedQPS, ep.Shed, ep.Retries, ep.Errors,
			ep.Latency.P50*1e3, ep.Latency.P95*1e3, ep.Latency.P99*1e3, ep.Latency.Max*1e3)
	}
}
