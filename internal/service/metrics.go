package service

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// serverMetrics is the daemon's telemetry wiring: the registry behind
// GET /metrics and GET /v1/stats, plus pre-resolved handles for every
// instrumented layer. Handles are resolved once here (or per route at
// mux registration), never on a request path — the hot path is atomic
// increments only.
type serverMetrics struct {
	reg *telemetry.Registry

	// HTTP layer. Routes are labelled with the mux pattern (method +
	// path), so GET and POST /v1/predict are distinct series.
	inflight  *telemetry.Gauge
	requests  *telemetry.CounterVec
	responses *telemetry.CounterVec
	latency   *telemetry.HistogramVec
	shed      *telemetry.CounterVec

	// Read-path load shedding.
	readInflight *telemetry.Gauge

	// Job queue (held by the Queue; methods are nil-receiver safe so a
	// bare NewQueue in tests runs unmetered).
	queue *queueMetrics

	// Model registry and the serve state on its slots.
	modelLoads *telemetry.Counter
	cache      *cacheMetrics
	// swapDuration observes model swaps end to end: registry persist (or
	// replication install) through the slot swap. A quantised engine is
	// built from the new model's weights on the slot's first request,
	// after the swap, so it does not show here.
	swapDuration *telemetry.Histogram

	// Sample store.
	store storeMetrics

	// Training pipeline.
	trainSamplesUsed    *telemetry.Counter
	trainMemberDuration *telemetry.Histogram
}

// queueMetrics instruments the job queue. A nil *queueMetrics discards
// everything, so the queue works unmetered in tests.
type queueMetrics struct {
	depth     *telemetry.Gauge
	submitted *telemetry.Counter
	rejected  *telemetry.CounterVec
	completed *telemetry.CounterVec
	duration  *telemetry.HistogramVec
}

func (m *queueMetrics) setDepth(n int) {
	if m == nil {
		return
	}
	m.depth.Set(int64(n))
}

func (m *queueMetrics) submittedJob() {
	if m == nil {
		return
	}
	m.submitted.Inc()
}

// rejectedJob counts a submission the queue refused; reason is "full"
// or "closed".
func (m *queueMetrics) rejectedJob(reason string) {
	if m == nil {
		return
	}
	m.rejected.With(reason).Inc()
}

// jobFinished counts a job a worker ran to a terminal state and
// observes its wall-clock duration. Job completion is not a hot path,
// so the label lookups here are fine.
func (m *queueMetrics) jobFinished(kind JobKind, state JobState, dur time.Duration) {
	if m == nil {
		return
	}
	m.completed.With(string(kind), string(state)).Inc()
	m.duration.With(string(kind)).Observe(dur.Seconds())
}

// jobCanceledQueued counts a job canceled before any worker picked it
// up; there is no duration to observe.
func (m *queueMetrics) jobCanceledQueued(kind JobKind) {
	if m == nil {
		return
	}
	m.completed.With(string(kind), string(JobCanceled)).Inc()
}

// cacheMetrics instruments the read path's serve state (see
// serveState): a hit means the state already existed on the slot, a
// miss that it was built.
type cacheMetrics struct {
	entryHits   *telemetry.Counter
	entryMisses *telemetry.Counter
	bindHits    *telemetry.Counter
	bindMisses  *telemetry.Counter
	topmHits    *telemetry.Counter
	topmMisses  *telemetry.Counter
	topmSeededC *telemetry.Counter
	topmExact   *telemetry.Counter
	topmSwept   *telemetry.Counter
	fallbacks   *telemetry.Counter
}

func (m *cacheMetrics) entry(hit bool) {
	if hit {
		m.entryHits.Inc()
	} else {
		m.entryMisses.Inc()
	}
}

func (m *cacheMetrics) bind(hit bool) {
	if hit {
		m.bindHits.Inc()
	} else {
		m.bindMisses.Inc()
	}
}

func (m *cacheMetrics) topm(hit bool) {
	if hit {
		m.topmHits.Inc()
	} else {
		m.topmMisses.Inc()
	}
}

// topmSeeded counts a top-M sweep that warm-started from a retained
// previous result instead of sweeping cold.
func (m *cacheMetrics) topmSeeded() {
	m.topmSeededC.Inc()
}

// topmSweep counts one sweep the read path ran: its exact forward
// passes, and — when it scored anything — the size of the space it
// covered. The two totals' ratio is the sweeps' survivor fraction.
func (m *cacheMetrics) topmSweep(scored, size int64) {
	if scored == 0 {
		return
	}
	m.topmExact.Add(int(scored))
	m.topmSwept.Add(int(size))
}

// engineFallback counts a model the configured serving engine refused;
// the read path serves it on the float64 reference instead.
func (m *cacheMetrics) engineFallback() {
	m.fallbacks.Inc()
}

// storeMetrics instruments the sample store. The zero value (all-nil
// handles) discards everything, so standalone stores run unmetered.
type storeMetrics struct {
	appended  *telemetry.Counter
	rotations *telemetry.Counter
	corrupt   *telemetry.Counter
}

// replicationMetrics instruments a serve replica's pull loop. The
// families register only when -upstream is configured, so a single-node
// or train-plane daemon's exposition is unchanged.
type replicationMetrics struct {
	syncs       *telemetry.Counter
	syncErrors  *telemetry.Counter
	installed   *telemetry.Counter
	generation  *telemetry.Gauge
	upstreamGen *telemetry.Gauge
	lastSuccess *telemetry.Gauge
}

// newReplicationMetrics declares the replication families; see the
// README's Operations section.
func newReplicationMetrics(reg *telemetry.Registry) *replicationMetrics {
	return &replicationMetrics{
		syncs: reg.Counter("mltuned_replication_syncs_total",
			"Successful replication sync rounds against the upstream."),
		syncErrors: reg.Counter("mltuned_replication_sync_errors_total",
			"Replication sync rounds that failed (poll, fetch, or install error)."),
		installed: reg.Counter("mltuned_replication_models_installed_total",
			"Model artifacts pulled from the upstream and installed locally."),
		generation: reg.Gauge("mltuned_replication_generation",
			"The replica's sync cursor: the upstream generation it has fully caught up to."),
		upstreamGen: reg.Gauge("mltuned_replication_upstream_generation",
			"The upstream's generation high-water mark as of the last poll; minus mltuned_replication_generation this is the replication lag in generations."),
		lastSuccess: reg.Gauge("mltuned_replication_last_success_timestamp_seconds",
			"Unix timestamp of the last successful sync round; alert on staleness."),
	}
}

// newServerMetrics declares every metric family the daemon exports.
// The README's Operations section documents each one; keep the two in
// sync.
func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{reg: reg}

	m.inflight = reg.Gauge("mltuned_http_inflight_requests",
		"Requests currently being handled, across all routes.")
	m.requests = reg.CounterVec("mltuned_http_requests_total",
		"HTTP requests handled, by mux route.", "route")
	m.responses = reg.CounterVec("mltuned_http_responses_total",
		"HTTP responses, by route and status class (2xx..5xx).", "route", "class")
	m.latency = reg.HistogramVec("mltuned_http_request_duration_seconds",
		"Request latency by route, shed requests included.", "route")
	m.shed = reg.CounterVec("mltuned_shed_total",
		"Read-path requests shed with 429 because -max-inflight was saturated.", "route")
	m.readInflight = reg.Gauge("mltuned_read_inflight",
		"Predict/top-M requests currently holding a -max-inflight slot.")

	m.queue = &queueMetrics{
		depth: reg.Gauge("mltuned_queue_depth",
			"Jobs waiting in the backlog (running jobs excluded)."),
		submitted: reg.Counter("mltuned_jobs_submitted_total",
			"Jobs accepted into the queue."),
		rejected: reg.CounterVec("mltuned_jobs_rejected_total",
			"Submissions refused by the queue, by reason (full, closed).", "reason"),
		completed: reg.CounterVec("mltuned_jobs_completed_total",
			"Jobs that reached a terminal state, by kind and state.", "kind", "state"),
		duration: reg.HistogramVec("mltuned_job_duration_seconds",
			"Wall-clock job duration by kind, from worker pickup to terminal state.", "kind"),
	}

	m.modelLoads = reg.Counter("mltuned_model_loads_total",
		"Models loaded from registry disk files (lazy first-use loads and post-reload reloads).")
	m.cache = &cacheMetrics{
		entryHits: reg.Counter("mltuned_serve_cache_hits_total",
			"Read-path requests served from an existing scratch-pool cache slot."),
		entryMisses: reg.Counter("mltuned_serve_cache_misses_total",
			"Read-path requests that built a fresh cache slot (cold key or replaced model)."),
		bindHits: reg.Counter("mltuned_bind_memo_hits_total",
			"Portable-model device bindings served from the bind memo."),
		bindMisses: reg.Counter("mltuned_bind_memo_misses_total",
			"Portable-model device bindings computed fresh."),
		topmHits: reg.Counter("mltuned_topm_cache_hits_total",
			"Top-M queries answered from the per-(model, M) sweep cache."),
		topmMisses: reg.Counter("mltuned_topm_cache_misses_total",
			"Top-M queries that paid a full-space sweep."),
		topmSeededC: reg.Counter("mltuned_topm_seeded_total",
			"Top-M sweeps warm-started from a retained previous result (incremental reuse or seeded screening instead of a cold sweep)."),
		topmExact: reg.Counter("mltuned_topm_exact_passes_total",
			"Exact reference forward passes paid by top-M sweeps (the configurations that survived the int16 screen, plus re-scored seeds)."),
		topmSwept: reg.Counter("mltuned_topm_swept_configs_total",
			"Configurations covered by top-M sweeps that scored anything; mltuned_topm_exact_passes_total over this is the survivor fraction."),
		fallbacks: reg.Counter("mltuned_engine_fallbacks_total",
			"Models the configured -engine could not be applied to, served on the float64 reference instead."),
	}

	m.store = storeMetrics{
		appended: reg.Counter("mltuned_samples_appended_total",
			"Sample records durably appended to the store."),
		rotations: reg.Counter("mltuned_sample_rotations_total",
			"Sample-set rotations (atomic trim of a set past its record cap)."),
		corrupt: reg.Counter("mltuned_sample_corrupt_lines_total",
			"Sample-store lines skipped at load time (truncated or malformed JSON, out-of-range records)."),
	}

	m.swapDuration = reg.Histogram("mltuned_model_swap_duration_seconds",
		"Model swap latency, from registry persist/install start to the slot swap.")

	m.trainSamplesUsed = reg.Counter("mltuned_train_samples_used_total",
		"Valid samples consumed by training jobs.")
	m.trainMemberDuration = reg.Histogram("mltuned_train_member_duration_seconds",
		"Per-ensemble-member training duration, as observed between progress events.")
	return m
}

// routeMetrics is the pre-resolved handle set for one mux route: what
// the middleware touches per request, allocation-free.
type routeMetrics struct {
	requests *telemetry.Counter
	latency  *telemetry.Histogram
	shed     *telemetry.Counter
	// classes[c] counts responses with status c00..c99; index 0 unused.
	classes [6]*telemetry.Counter
}

// route resolves (creating on first use) the handle set for a route
// label. Called at mux registration time only.
func (m *serverMetrics) route(label string) *routeMetrics {
	rm := &routeMetrics{
		requests: m.requests.With(label),
		latency:  m.latency.With(label),
		shed:     m.shed.With(label),
	}
	for c := 1; c <= 5; c++ {
		rm.classes[c] = m.responses.With(label, classLabel(c))
	}
	return rm
}

func classLabel(c int) string {
	return string([]byte{byte('0' + c), 'x', 'x'})
}

// statusWriter captures the response status code for the status-class
// counters. Instances are pooled: the middleware must not add an
// allocation per request.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

// instrument wraps a handler with the per-route request counter,
// in-flight gauge, latency histogram and status-class counters. Shed
// (429) responses flow through it too, so the latency histogram's
// count equals the route's request count exactly.
func (s *Server) instrument(rm *routeMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inflight.Inc()
		start := time.Now()
		sw := statusWriterPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.code = w, http.StatusOK
		h(sw, r)
		code := sw.code
		sw.ResponseWriter = nil
		statusWriterPool.Put(sw)
		s.metrics.inflight.Dec()
		rm.requests.Inc()
		rm.latency.Observe(time.Since(start).Seconds())
		if c := code / 100; c >= 1 && c <= 5 {
			rm.classes[c].Inc()
		}
	}
}

// acquireRead takes one -max-inflight slot, reporting false when the
// read path is saturated (the caller sheds). A nil semaphore means
// shedding is disabled.
func (s *Server) acquireRead() bool {
	if s.readSem == nil {
		return true
	}
	select {
	case s.readSem <- struct{}{}:
		s.metrics.readInflight.Inc()
		return true
	default:
		return false
	}
}

// releaseRead returns the slot taken by acquireRead.
func (s *Server) releaseRead() {
	if s.readSem == nil {
		return
	}
	s.metrics.readInflight.Dec()
	<-s.readSem
}

// withShed bounds a read-path handler by the -max-inflight semaphore:
// over-limit requests are shed immediately with 429 and a Retry-After
// hint instead of queueing behind a saturated prediction engine.
func (s *Server) withShed(rm *routeMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.acquireRead() {
			rm.shed.Inc()
			writeAPIError(w, errf(errKindOverloaded,
				"read path at its in-flight limit (%d), retry", cap(s.readSem)))
			return
		}
		defer s.releaseRead()
		h(w, r)
	}
}
