package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	nhpprof "net/http/pprof"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Server is the mltuned daemon: job submission and status over the
// async queue, model-serving endpoints (predict, top-M, listing)
// answered straight from the registry without re-tuning, and the
// server-side training pipeline (sample ingestion + async retrains).
// The request semantics live in the transport-agnostic API methods
// (api.go); this file is the HTTP adapter over them, and rpc.go is the
// binary adapter over the same methods.
//
// Endpoints:
//
//	POST   /v1/jobs       submit a tuning/training job   → 202 JobStatus
//	GET    /v1/jobs       list jobs                      → []JobStatus
//	GET    /v1/jobs/{id}  status + observer events (?after=seq)
//	DELETE /v1/jobs/{id}  cancel a queued/running job
//	POST   /v1/samples    ingest training samples        → counts
//	GET    /v1/samples    sample-store listing (?benchmark=&device= for one set's exact count)
//	POST   /v1/train      submit an async retrain job    → 202 JobStatus
//	GET    /v1/models     registry listing + resolution order → {resolution_order, models}
//	                      (?benchmark= filters to one benchmark; ?shard=i/n to one shard's keys)
//	POST   /v1/reload     rescan the registry directory
//	GET    /v1/predict    predict one configuration      (?benchmark=&device=&index=N | &c.<param>=v;
//	                      ?descriptor=<JSON> resolves unseen hardware through the
//	                      portable model)
//	POST   /v1/predict    predict a batch                (JSON: indices or configs; optional descriptor)
//	GET    /v1/topm       M best-predicted configurations (?benchmark=&device=&m=N; ?descriptor= as above)
//	GET    /v1/stats      health counters + full JSON metrics snapshot
//	GET    /healthz       liveness + queue/registry counters (always 200 while up)
//	GET    /readyz        readiness: 503 while draining or queue-full
//	GET    /metrics       Prometheus text exposition format
//
// Every non-2xx response is the shared error envelope (see Error in
// api.go): {"error","kind",...} plus a Retry-After header on retryable
// kinds. On a sharded instance (WithShard) requests for keys another
// shard owns answer 421 with kind "not_owner" naming the owner.
//
// The read path (predict/top-M) runs on the batched prediction engine:
// per-model scratch pools keep steady-state predictions allocation-free,
// and top-M sweeps are cached per (model, M) until the model is replaced
// by a tuning or training job or a registry reload. The write path is
// the training pipeline: completed tuning jobs and external measurers
// feed the persistent sample store, and training jobs turn stored
// samples into registry models without a restart.
//
// Every route is instrumented (request count, latency histogram,
// status-class counters — see the README's Operations section for the
// metric reference), and the read path is bounded by WithMaxInflight:
// requests beyond the in-flight limit are shed with 429 + Retry-After
// rather than queueing behind a saturated prediction engine.
type Server struct {
	reg          *Registry
	samples      *SampleStore
	queue        *Queue
	mux          *http.ServeMux
	trainWorkers int
	started      time.Time

	// role is the daemon's plane (see Role); repl is the pull loop of a
	// serve replica with an -upstream, nil otherwise. upstream/interval
	// hold the WithUpstream configuration until New builds repl.
	role     Role
	repl     *replicator
	upstream string
	interval time.Duration

	// ring is the ownership ring of a sharded deployment (nil = this
	// instance owns every key); shardIndex/shardCount hold the WithShard
	// configuration until New validates it. peers/rpcPeers map shard
	// index → base address, filling the Owner field of not_owner errors
	// so clients can follow the redirect.
	ring       *shardRing
	shardIndex int
	shardCount int
	peers      []string
	rpcPeers   []string

	// engine is the read path's configured inference engine name
	// (WithEngine); "" = the float64 reference.
	engine string

	// prevTop retains the newest top-M result per (resolved key, M) —
	// warm-start provenance, not served data, so slot swaps never clear
	// it (see retain).
	prevMu  sync.Mutex
	prevTop map[ModelKey]map[int]*core.TopMResult

	// metrics is the telemetry wiring behind GET /metrics and
	// GET /v1/stats; always non-nil. rpcm holds the RPC-plane families,
	// registered lazily on the first ServeRPC so an HTTP-only daemon's
	// exposition is unchanged.
	metrics *serverMetrics
	rpcOnce sync.Once
	rpcm    *rpcMetrics
	// readSem bounds in-flight predict/top-M work (nil = no limit):
	// over-limit requests shed with 429 instead of piling onto the
	// prediction engine.
	readSem chan struct{}
	// lastSwap is the wall-clock time (unix nanoseconds, 0 = never) of
	// the last completed model swap, behind last_swap_age_seconds in
	// GET /v1/stats.
	lastSwap atomic.Int64
	// pprof mounts net/http/pprof under /debug/pprof/ when set.
	pprof bool

	// testHookPredict, when non-nil, runs at the start of handlePredict
	// while the request's -max-inflight slot is held; the shed tests use
	// it to pin slots open and saturate the read path deterministically.
	testHookPredict func()
}

// Role selects which plane of the daemon an instance runs:
//
//   - RoleAll (the default) is the single-node deployment: training and
//     serving in one process, exactly the pre-split behaviour.
//   - RoleTrain is the train plane: it accepts tuning jobs, sample
//     ingestion, and retrains, and its registry is the source replicas
//     pull from.
//   - RoleServe is the serve plane: a read-only replica. Mutating
//     endpoints answer 405 with the machine-readable kind "read_only",
//     and with an upstream configured the instance keeps its registry
//     fresh by pulling changed model artifacts (see Replicate).
type Role string

const (
	RoleAll   Role = "all"
	RoleServe Role = "serve"
	RoleTrain Role = "train"
)

// ParseRole validates a -role flag value.
func ParseRole(s string) (Role, error) {
	switch Role(s) {
	case RoleAll, RoleServe, RoleTrain:
		return Role(s), nil
	case "":
		return RoleAll, nil
	}
	return "", fmt.Errorf("service: unknown role %q (want %q, %q or %q)", s, RoleAll, RoleServe, RoleTrain)
}

// Option customises a Server at construction time.
type Option func(*Server)

// WithRole runs the server as one plane of a split deployment; the
// zero value behaves like RoleAll.
func WithRole(role Role) Option {
	return func(s *Server) { s.role = role }
}

// WithUpstream points a serve replica at the train-plane daemon's base
// URL; the replica pulls changed models every interval (<= 0 = the
// 5-second default). Requires RoleServe: a plane that trains locally
// and pulls remotely would have two writers per registry slot.
func WithUpstream(baseURL string, interval time.Duration) Option {
	return func(s *Server) {
		s.upstream = baseURL
		s.interval = interval
	}
}

// WithShard runs the instance as shard index of count over the
// benchmark@device keyspace (the daemon's -shard i/n flag). The
// instance then serves and replicates only the keys the consistent-hash
// ring assigns it (portable benchmark@* models belong to every shard),
// answering requests for other shards' keys with kind "not_owner" and
// the owning shard's index — plus its address when WithShardPeers is
// configured. Every member of one deployment must use the same count.
func WithShard(index, count int) Option {
	return func(s *Server) {
		s.shardIndex = index
		s.shardCount = count
	}
}

// WithShardPeers supplies the shard-indexed peer addresses (HTTP base
// URLs, and optionally RPC host:port addresses) of a sharded
// deployment, so not_owner errors carry the owner's address and clients
// can follow the redirect without knowing the topology themselves.
func WithShardPeers(httpPeers, rpcPeers []string) Option {
	return func(s *Server) {
		s.peers = httpPeers
		s.rpcPeers = rpcPeers
	}
}

// WithEngine serves the read path on the named inference engine (the
// daemon's -engine flag; see ann.EngineNames). Batch predictions then
// run within the engine's proven error bound of the float64 reference,
// and top-M sweeps use it for screening only — top-M answers stay
// identical to the reference engine's. Models the engine refuses (the
// int16 proof does not cover every topology) fall back to the reference
// per model, counted in mltuned_engine_fallbacks_total.
func WithEngine(name string) Option {
	return func(s *Server) { s.engine = name }
}

// WithSampleStore uses an explicitly opened sample store instead of the
// default directory under the registry.
func WithSampleStore(st *SampleStore) Option {
	return func(s *Server) { s.samples = st }
}

// WithTrainWorkers bounds the per-job ensemble-training parallelism (the
// daemon's -train-workers budget; 0 = GOMAXPROCS). Training results
// never depend on it.
func WithTrainWorkers(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.trainWorkers = n
		}
	}
}

// WithMaxInflight bounds the number of predict/top-M requests served
// concurrently (the daemon's -max-inflight flag; 0 = unlimited).
// Requests beyond the bound are shed immediately with 429 and a
// Retry-After hint rather than queueing.
func WithMaxInflight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.readSem = make(chan struct{}, n)
		}
	}
}

// WithPprof mounts net/http/pprof under /debug/pprof/ (the daemon's
// -pprof flag). Off by default: profiling endpoints expose heap and
// goroutine internals and cost real CPU when scraped.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// New builds a server over the registry with a worker pool of the given
// size (0 = GOMAXPROCS) and job backlog (0 = 64). Unless WithSampleStore
// is given, the sample store opens under <registry dir>/samples.
func New(reg *Registry, workers, backlog int, opts ...Option) (*Server, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if backlog <= 0 {
		backlog = 64
	}
	s := &Server{
		reg:          reg,
		metrics:      newServerMetrics(),
		trainWorkers: runtime.GOMAXPROCS(0),
		started:      time.Now().UTC(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.engine != "" {
		valid := false
		for _, n := range ann.EngineNames() {
			if n == s.engine {
				valid = true
				break
			}
		}
		if !valid {
			return nil, fmt.Errorf("service: unknown engine %q (want one of %v)", s.engine, ann.EngineNames())
		}
	}
	if s.shardCount != 0 || s.shardIndex != 0 {
		if s.shardCount < 1 || s.shardIndex < 0 || s.shardIndex >= s.shardCount {
			return nil, fmt.Errorf("service: invalid shard %d/%d (want 0 <= index < count)", s.shardIndex, s.shardCount)
		}
		s.ring = newShardRing(s.shardIndex, s.shardCount)
	}
	if s.ring == nil && (len(s.peers) > 0 || len(s.rpcPeers) > 0) {
		return nil, fmt.Errorf("service: shard peers configured without a shard (use WithShard / -shard i/n)")
	}
	s.prevTop = make(map[ModelKey]map[int]*core.TopMResult)
	if s.role == "" {
		s.role = RoleAll
	}
	if s.upstream != "" {
		if s.role != RoleServe {
			return nil, fmt.Errorf("service: an upstream requires role %q (got %q): the train plane owns its registry", RoleServe, s.role)
		}
		s.repl = newReplicator(s, s.upstream, s.interval)
	}
	if s.samples == nil {
		var st *SampleStore
		var err error
		if dir := reg.Dir(); dir != "" {
			st, err = OpenSampleStore(filepath.Join(dir, "samples"))
		} else {
			// A memory-backed registry gets a memory-backed sample store:
			// an ephemeral replica has nothing worth writing to disk.
			st, err = NewSampleStore(storage.NewMemory())
		}
		if err != nil {
			return nil, err
		}
		s.samples = st
	}
	// Attach metrics to the components built before the Server existed.
	// This happens before any traffic (the mux below is the only way in),
	// so no reader can observe the handles half-wired.
	reg.setMetrics(s.metrics.modelLoads)
	s.samples.setMetrics(s.metrics.store)
	s.queue = NewQueue(workers, backlog, s.runJob, s.metrics.queue)

	mux := http.NewServeMux()
	// handle wraps every route with the per-route instrumentation;
	// handleRead additionally bounds it by the -max-inflight semaphore.
	// The route label is the mux pattern, so the metrics reference in
	// the README matches what the mux matched.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(s.metrics.route(pattern), h))
	}
	handleRead := func(pattern string, h http.HandlerFunc) {
		rm := s.metrics.route(pattern)
		mux.HandleFunc(pattern, s.instrument(rm, s.withShed(rm, h)))
	}
	handle("POST /v1/jobs", s.readOnly(s.handleSubmit))
	handle("GET /v1/jobs", s.handleJobs)
	handle("GET /v1/jobs/{id}", s.handleJob)
	handle("DELETE /v1/jobs/{id}", s.readOnly(s.handleCancel))
	handle("POST /v1/samples", s.readOnly(s.handleSamplesIngest))
	handle("GET /v1/samples", s.handleSamplesList)
	handle("POST /v1/train", s.readOnly(s.handleTrain))
	handle("GET /v1/models", s.handleModels)
	handle("GET /v1/models/{file}", s.handleModelArtifact)
	handle("POST /v1/reload", s.handleReload)
	handleRead("GET /v1/predict", s.handlePredict)
	handleRead("POST /v1/predict", s.handlePredictBatch)
	handleRead("GET /v1/topm", s.handleTopM)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", nhpprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", nhpprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", nhpprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", nhpprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", nhpprof.Trace)
	}
	s.mux = mux
	return s, nil
}

// Metrics exposes the telemetry registry (for tests and the daemon).
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.reg }

// Role reports which plane this instance runs.
func (s *Server) Role() Role { return s.role }

// Engine reports the read path's configured inference engine name,
// resolving the default to the float64 reference.
func (s *Server) Engine() string {
	if s.engine == "" {
		return ann.EngineFloat64
	}
	return s.engine
}

// readOnly gates a mutating handler by role: a serve-plane replica
// answers 405 with the machine-readable kind "read_only" before even
// decoding the body. The API methods enforce the same gate
// (requireWritable) for transports without this middleware.
func (s *Server) readOnly(h http.HandlerFunc) http.HandlerFunc {
	if s.role != RoleServe {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		writeAPIError(w, s.requireWritable())
	}
}

// Samples exposes the sample store (for tests and the daemon).
func (s *Server) Samples() *SampleStore { return s.samples }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Queue exposes the job queue (for tests and the daemon's drain path).
func (s *Server) Queue() *Queue { return s.queue }

// Drain gracefully shuts the job queue down; see Queue.Drain.
func (s *Server) Drain(ctx context.Context) error { return s.queue.Drain(ctx) }

// runJob executes one job end to end, dispatching on its kind. It is
// the queue's worker body.
func (s *Server) runJob(ctx context.Context, j *Job) {
	if j.Spec.Kind == KindTrain {
		res, saved, err := s.train(ctx, j)
		j.finish(res, saved, err)
		return
	}
	res, saved, err := s.tune(ctx, j)
	j.finish(res, saved, err)
}

func (s *Server) tune(ctx context.Context, j *Job) (*core.Result, bool, error) {
	spec := j.Spec
	b, err := bench.Lookup(spec.Benchmark)
	if err != nil {
		return nil, false, err
	}
	d, err := devsim.Lookup(spec.Device)
	if err != nil {
		return nil, false, err
	}
	m, err := core.NewSimMeasurer(b, d, bench.Size{}, spec.Reps)
	if err != nil {
		return nil, false, err
	}
	sopts := []core.SessionOption{core.WithObserver(j.observe)}
	if spec.Workers > 0 {
		sopts = append(sopts, core.WithWorkers(spec.Workers))
	}
	sess, err := core.NewSession(m, spec.options(), sopts...)
	if err != nil {
		return nil, false, err
	}
	res, err := sess.Run(ctx, spec.Strategy)
	if err != nil {
		return nil, false, err
	}
	saved := false
	if res.Model != nil {
		if err := s.swapModel(spec.Key(), func() error { return s.reg.Put(spec.Key(), res.Model) }); err != nil {
			return res, false, err
		}
		saved = true
	}
	// Every completed tuning run contributes its measurements to the
	// sample store, closing the loop: future POST /v1/train jobs retrain
	// from data the daemon already paid for.
	s.feedStore(j, res)
	return res, saved, nil
}

// swapModel runs one swap of key's model — a registry Put or
// replication Install via install, whose fresh slot is what makes the
// new model, and none of the old one's read-path state, visible to the
// read path — and observes it end to end in
// mltuned_model_swap_duration_seconds, stamping the last-swap time
// behind last_swap_age_seconds. All three swap sites (tuning jobs,
// training jobs, replication installs) go through it, so the histogram
// is the install-to-servable latency regardless of where the model
// came from.
func (s *Server) swapModel(key ModelKey, install func() error) error {
	start := time.Now()
	if err := install(); err != nil {
		return err
	}
	s.metrics.swapDuration.Observe(time.Since(start).Seconds())
	s.lastSwap.Store(time.Now().UnixNano())
	return nil
}

// --- JSON helpers (writeJSON is in httpjson.go) -----------------------

// writeAPIError renders any error as the shared envelope: the kind's
// HTTP status, the {"error","kind",...} body, and a Retry-After header
// when the error carries a backoff hint.
func writeAPIError(w http.ResponseWriter, err error) {
	e := asError(err)
	if e.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds))
	}
	writeJSON(w, e.HTTPStatus(), e)
}

// --- job handlers -----------------------------------------------------

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeAPIError(w, errf(errKindInvalid, "decoding job spec: %v", err))
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	after, aerr := parseAfter(r.URL.Query().Get("after"))
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	resp, err := s.Job(r.PathValue("id"), after)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// --- model-serving handlers -------------------------------------------

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := ModelsRequest{Benchmark: q.Get("benchmark"), Shard: q.Get("shard")}
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeAPIError(w, errf(errKindInvalid, "since: %v", err))
			return
		}
		req.Since = n
	}
	resp, err := s.Models(&req)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleModelArtifact serves one model's raw serialised bytes — the
// replication fetch endpoint. {file} is the registry file name from the
// listing (path-escaped by the client: registry names are query-escaped
// key parts and may contain '%').
func (s *Server) handleModelArtifact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("file")
	key, err := keyFromFileName(name)
	if err != nil {
		writeAPIError(w, errf(errKindInvalid, "%v", err))
		return
	}
	data, gen, err := s.reg.GetRaw(key)
	switch {
	case errors.Is(err, ErrModelNotFound):
		writeAPIError(w, errf(errKindNotFound, "%v", err))
		return
	case err != nil:
		writeAPIError(w, errf(errKindInternal, "%v", err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Mltuned-Generation", strconv.FormatUint(gen, 10))
	w.Write(data)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	resp, err := s.ReloadModels()
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// descriptorFromQuery parses the optional ?descriptor= parameter: a
// URL-escaped devsim.Descriptor JSON object describing hardware the
// daemon has never seen, for the portable resolution path.
func descriptorFromQuery(q url.Values) (*devsim.Descriptor, error) {
	v := q.Get("descriptor")
	if v == "" {
		return nil, nil
	}
	var d devsim.Descriptor
	dec := json.NewDecoder(strings.NewReader(v))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("descriptor: %w", err)
	}
	return &d, nil
}

// configMapFromQuery collects the config-map addressing parameters:
// one c.<param>=<value> per tuning parameter. The pre-RPC-plane
// p.<param> spelling completed its announced deprecation window and is
// rejected with a pointer at the replacement, so a stale client gets a
// 400 naming the fix rather than a confusing "parameter missing".
func configMapFromQuery(q url.Values) (map[string]int, error) {
	var values map[string]int
	for name, vs := range q {
		if pname, ok := strings.CutPrefix(name, "p."); ok {
			return nil, fmt.Errorf("%s: the p.<param> spelling was removed, use c.%s", name, pname)
		}
		pname, ok := strings.CutPrefix(name, "c.")
		if !ok {
			continue
		}
		if values == nil {
			values = make(map[string]int)
		}
		v, err := strconv.Atoi(vs[0])
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		values[pname] = v
	}
	return values, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if s.testHookPredict != nil {
		s.testHookPredict()
	}
	q := r.URL.Query()
	desc, err := descriptorFromQuery(q)
	if err != nil {
		writeAPIError(w, errf(errKindInvalid, "%v", err))
		return
	}
	req := PredictRequest{Benchmark: q.Get("benchmark"), Device: q.Get("device"), Descriptor: desc}
	if v := q.Get("index"); v != "" {
		idx, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeAPIError(w, errf(errKindInvalid, "index: %v", err))
			return
		}
		req.HasIndex, req.Index = true, idx
	}
	cfg, err := configMapFromQuery(q)
	if err != nil {
		writeAPIError(w, errf(errKindInvalid, "%v", err))
		return
	}
	req.Config = cfg
	resp, aerr := s.Predict(&req)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// predictBatchBody is the POST /v1/predict body: the model key plus
// exactly one of Indices (dense space indices) or Configs (parameter
// maps, every parameter present). Descriptor, when set, is an inline
// devsim descriptor of hardware the daemon has never seen; resolution
// then goes straight to the portable <benchmark>@* model bound to it.
type predictBatchBody struct {
	Benchmark  string             `json:"benchmark"`
	Device     string             `json:"device,omitempty"`
	Descriptor *devsim.Descriptor `json:"descriptor,omitempty"`
	Indices    []int64            `json:"indices,omitempty"`
	Configs    []map[string]int   `json:"configs,omitempty"`
}

// maxPredictBatchBytes bounds the POST /v1/predict body so the size
// limit holds *before* decoding: a maximal batch of config maps is well
// under 4 MiB, and anything larger must not be parsed into memory first.
const maxPredictBatchBytes = 4 << 20

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	var body predictBatchBody
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPredictBatchBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeAPIError(w, errf(errKindInvalid, "decoding predict batch: %v", err))
		return
	}
	resp, err := s.PredictBatch(&PredictBatchRequest{
		Benchmark:  body.Benchmark,
		Device:     body.Device,
		Descriptor: body.Descriptor,
		Indices:    body.Indices,
		Configs:    body.Configs,
	})
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTopM(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	desc, err := descriptorFromQuery(q)
	if err != nil {
		writeAPIError(w, errf(errKindInvalid, "%v", err))
		return
	}
	req := TopMRequest{Benchmark: q.Get("benchmark"), Device: q.Get("device"), Descriptor: desc}
	if v := q.Get("m"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeAPIError(w, errf(errKindInvalid, "m must be a positive integer"))
			return
		}
		req.M = n
	}
	resp, aerr := s.TopM(&req)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// It answers 200 even while draining — a draining daemon is alive; the
// routing decision belongs to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// handleReadyz renders the readiness decision (see Ready): 200 when the
// instance should receive traffic, 503 with the reason otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := s.Ready()
	if rd.Ready {
		writeJSON(w, http.StatusOK, rd)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, rd)
}

// handleMetrics renders the telemetry registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	s.metrics.reg.WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
