package service

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/telemetry"
	"repro/internal/tuning"
)

// This file is the transport-agnostic service core: the typed request
// and response shapes of every daemon operation, the shared error
// taxonomy both transports render, and the API methods themselves
// (methods on *Server, each returning its typed result or an error
// coercible to *Error via asError). The HTTP handlers (server.go) and
// the binary RPC plane (rpc.go) are thin adapters over these methods —
// they parse their wire format into the request structs, call the API,
// and encode the typed result or *Error back out. Request semantics
// (validation order, model resolution, shard ownership, role gating,
// limits) live here exactly once, so the two transports cannot drift.

// Machine-readable error kinds: clients branch on these, not on the
// human-readable message. Every non-2xx HTTP response and every RPC
// error frame carries exactly one of them.
const (
	// errKindInvalid: the request itself is malformed (bad field, out of
	// range, missing parameter). Fix the request; retrying is pointless.
	errKindInvalid = "invalid_argument"
	// errKindNotFound: the addressed entity (model, job, sample set)
	// does not exist on this instance.
	errKindNotFound = "not_found"
	// errKindNotOwner: this instance is sharded and does not own the
	// addressed benchmark@device key; the error names the owning shard
	// (and its addresses when the peer set is configured) so clients
	// can follow the redirect.
	errKindNotOwner = "not_owner"
	// errKindQueueFull: the backlog is at capacity; retry after the
	// Retry-After hint.
	errKindQueueFull = "queue_full"
	// errKindQueueClosed: the daemon is draining for shutdown; do not
	// retry against this instance.
	errKindQueueClosed = "queue_closed"
	// errKindOverloaded: the read path shed the request (429); retry
	// after the Retry-After hint.
	errKindOverloaded = "overloaded"
	// errKindReadOnly: this instance is a serve-plane replica; mutating
	// requests belong on the train plane. Never retryable here.
	errKindReadOnly = "read_only"
	// errKindNotReady: the instance is up but should not receive new
	// traffic (draining, backlog full, or awaiting its first sync).
	errKindNotReady = "not_ready"
	// errKindInternal: the daemon failed; the request may be fine.
	errKindInternal = "internal"
)

// The error kinds, exported for clients (rpcclient, tooling) that
// branch on Error.Kind.
const (
	ErrKindInvalidArgument = errKindInvalid
	ErrKindNotFound        = errKindNotFound
	ErrKindNotOwner        = errKindNotOwner
	ErrKindQueueFull       = errKindQueueFull
	ErrKindQueueClosed     = errKindQueueClosed
	ErrKindOverloaded      = errKindOverloaded
	ErrKindReadOnly        = errKindReadOnly
	ErrKindNotReady        = errKindNotReady
	ErrKindInternal        = errKindInternal
)

// OwnerRef names the shard owning a key this instance refused with
// errKindNotOwner. Addr/RPCAddr are the owner's base addresses when
// the refusing instance knows its peer set (-peers / -rpc-peers);
// clients follow them instead of hashing the ring themselves.
type OwnerRef struct {
	Shard   int    `json:"shard"`
	Addr    string `json:"addr,omitempty"`
	RPCAddr string `json:"rpc_addr,omitempty"`
}

// Error is the service's shared error envelope: every operation that
// fails returns one, and both transports render it losslessly — HTTP
// as the non-2xx JSON body {"error", "kind", ...} plus a Retry-After
// header when retryable, RPC as an error frame. Kind is the stable
// machine-readable class (see errKind*), Message the human-readable
// detail.
type Error struct {
	Message   string `json:"error"`
	Kind      string `json:"kind"`
	Retryable bool   `json:"retryable,omitempty"`
	// RetryAfterSeconds is the backoff hint accompanying retryable
	// errors; HTTP mirrors it into the Retry-After header.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Owner names the owning shard on errKindNotOwner errors.
	Owner *OwnerRef `json:"owner,omitempty"`
}

func (e *Error) Error() string { return e.Message }

// retryAfterHintSeconds is the backoff on queue-full and shed
// responses: long enough for a burst to clear, short enough that
// clients do not sit idle against a recovered daemon.
const retryAfterHintSeconds = 1

// retryAfterHintStr is the hint as HTTP transports render it in the
// Retry-After header.
var retryAfterHintStr = strconv.Itoa(retryAfterHintSeconds)

// errf builds an *Error of the given kind, deriving the retry
// contract from the kind: overloaded and queue-full are retryable
// with the standard hint, everything else is not.
func errf(kind, format string, args ...any) *Error {
	e := &Error{Kind: kind, Message: fmt.Sprintf(format, args...)}
	if kind == errKindOverloaded || kind == errKindQueueFull {
		e.Retryable = true
		e.RetryAfterSeconds = retryAfterHintSeconds
	}
	return e
}

// asError coerces any error to the envelope: *Error values pass
// through, queue sentinels map to their kinds, anything else is
// internal.
func asError(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		return errf(errKindQueueFull, "%v", err)
	case errors.Is(err, ErrQueueClosed):
		return errf(errKindQueueClosed, "%v", err)
	}
	return errf(errKindInternal, "%v", err)
}

// HTTPStatus maps the error kind to its HTTP status code.
func (e *Error) HTTPStatus() int {
	switch e.Kind {
	case errKindInvalid:
		return http.StatusBadRequest
	case errKindNotFound:
		return http.StatusNotFound
	case errKindReadOnly:
		return http.StatusMethodNotAllowed
	case errKindNotOwner:
		return http.StatusMisdirectedRequest
	case errKindOverloaded:
		return http.StatusTooManyRequests
	case errKindQueueFull, errKindQueueClosed, errKindNotReady:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// --- typed requests and responses -------------------------------------

// Prediction is one predicted configuration in API responses: its
// space index and predicted time. HTTP bodies also carry the
// configuration's parameter map, rendered from the index (configKeys);
// the RPC plane and Go callers derive it from the space when they need
// it.
type Prediction struct {
	Index   int64   `json:"index"`
	Seconds float64 `json:"seconds"`
}

// PredictRequest addresses one configuration of one model. Exactly one
// of (HasIndex, Index) or Config selects the configuration; Device or
// Descriptor (inline JSON for unseen hardware) selects the model, in
// the documented resolution order.
type PredictRequest struct {
	Benchmark  string
	Device     string
	Descriptor *devsim.Descriptor
	HasIndex   bool
	Index      int64
	Config     map[string]int
}

// PredictResponse is the GET /v1/predict (and RPC predict) result.
type PredictResponse struct {
	Benchmark  string `json:"benchmark"`
	Device     string `json:"device"`
	Resolution string `json:"resolution"`
	Prediction
	keys *configKeys // renders the config field over HTTP
}

// PredictBatchRequest addresses a batch: exactly one of Indices (dense
// space indices) or Configs (parameter maps, every parameter present).
type PredictBatchRequest struct {
	Benchmark  string
	Device     string
	Descriptor *devsim.Descriptor
	Indices    []int64
	Configs    []map[string]int
}

// PredictBatchResponse is the POST /v1/predict (and RPC predict-batch)
// result.
type PredictBatchResponse struct {
	Benchmark   string       `json:"benchmark"`
	Device      string       `json:"device"`
	Resolution  string       `json:"resolution"`
	Predictions []Prediction `json:"predictions"`
	keys        *configKeys  // renders each config field over HTTP
}

// TopMRequest asks for the M best-predicted configurations of one
// model.
type TopMRequest struct {
	Benchmark  string
	Device     string
	Descriptor *devsim.Descriptor
	M          int
}

// TopMResponse is the GET /v1/topm (and RPC topm) result.
type TopMResponse struct {
	Benchmark  string       `json:"benchmark"`
	Device     string       `json:"device"`
	Resolution string       `json:"resolution"`
	M          int          `json:"m"`
	Top        []Prediction `json:"top"`
	keys       *configKeys  // renders each config field over HTTP
}

// ModelsRequest selects the model listing: slots whose generation
// moved past Since (0 = all), optionally filtered to one benchmark
// and/or to the keys a shard spec ("i/n") owns — the server side of
// shard-aware replication.
type ModelsRequest struct {
	Since     uint64
	Benchmark string
	Shard     string
}

// ModelsResponse is the GET /v1/models (and RPC models-delta) result.
type ModelsResponse struct {
	Role            Role        `json:"role"`
	Engine          string      `json:"engine"`
	Storage         string      `json:"storage"`
	Generation      uint64      `json:"generation"`
	Shard           *ShardInfo  `json:"shard,omitempty"`
	ResolutionOrder []string    `json:"resolution_order"`
	Models          []ModelInfo `json:"models"`
}

// SampleSetCount is the exact-count view of one sample set.
type SampleSetCount struct {
	Benchmark string `json:"benchmark"`
	Device    string `json:"device"`
	Records   int    `json:"records"`
}

// SamplesResponse is the GET /v1/samples result: either the set
// listing (possibly benchmark-filtered) or, when both benchmark and
// device were given, one set's exact count.
type SamplesResponse struct {
	Sets  []SampleSetInfo
	Exact *SampleSetCount
}

// IngestResponse reports a POST /v1/samples batch.
type IngestResponse struct {
	Benchmark string `json:"benchmark"`
	Device    string `json:"device"`
	Ingested  int    `json:"ingested"`
	Total     int    `json:"total"`
}

// JobWithEvents is the single-job status payload: the status plus the
// observer event stream from after on (seq-numbered, so clients poll
// incrementally: pass the last seq seen to get only what is new).
type JobWithEvents struct {
	JobStatus
	Events []EventRecord `json:"events"`
	// EventsDropped counts the events this client missed: events that
	// aged out of the buffer beyond its after position. Zero for a
	// poller that kept up, even after the buffer wrapped.
	EventsDropped int `json:"events_dropped,omitempty"`
}

// ReloadResponse reports a POST /v1/reload rescan.
type ReloadResponse struct {
	Models int `json:"models"`
}

// HealthResponse is the GET /healthz payload.
type HealthResponse struct {
	OK            bool             `json:"ok"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Models        int              `json:"models"`
	SampleSets    int              `json:"sample_sets"`
	Jobs          map[JobState]int `json:"jobs"`
}

// Readiness is the GET /readyz payload. When not ready it doubles as
// the error envelope: Kind/Err carry the machine-readable class so
// every non-2xx body on the API has {"kind","error"}.
type Readiness struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Err    string `json:"error,omitempty"`
}

// StatsResponse is the GET /v1/stats payload: the health counters plus
// a full JSON snapshot of every metric — the structured twin of
// GET /metrics, and what cmd/mlbench diffs across a load run.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Role is the plane this instance runs (all, serve, train); Engine is
	// the read path's inference engine (-engine flag); Storage names the
	// backend behind each store.
	Role    Role        `json:"role"`
	Engine  string      `json:"engine"`
	Storage storageInfo `json:"storage"`
	// Shard is the instance's slice of the keyspace (absent unsharded).
	Shard *ShardInfo `json:"shard,omitempty"`
	// Generation is the registry's generation high-water mark — on a
	// replica, compare with Replication.UpstreamGeneration for lag.
	Generation  uint64           `json:"generation"`
	Models      int              `json:"models"`
	SampleSets  int              `json:"sample_sets"`
	Jobs        map[JobState]int `json:"jobs"`
	MaxInflight int              `json:"max_inflight"`
	// LastSwapAgeSeconds is the age of the last completed model swap
	// (tuning-job Put, training-job Put, or replication install); absent
	// until the first swap. Alert on staleness where models are expected
	// to refresh continuously.
	LastSwapAgeSeconds *float64           `json:"last_swap_age_seconds,omitempty"`
	Replication        *replicationStatus `json:"replication,omitempty"`
	Telemetry          telemetry.Snapshot `json:"telemetry"`
}

// storageInfo names the storage backends in GET /v1/stats.
type storageInfo struct {
	Models  string `json:"models"`
	Samples string `json:"samples"`
}

// --- model resolution -------------------------------------------------

// modelResolutionOrder documents how predict/top-M requests resolve to
// a registry model; /v1/models surfaces it so clients can see why a
// device without its own model still gets answers.
var modelResolutionOrder = []string{
	"exact: <benchmark>@<device>",
	"portable: <benchmark>@* bound to the requesting device's descriptor (catalog name, or inline descriptor JSON for unseen hardware)",
}

// Resolution labels of prediction responses: which registry slot
// answered the request.
const (
	// resolutionExact: the benchmark@device model itself.
	resolutionExact = "exact"
	// resolutionPortable: the benchmark@* portable model, bound to the
	// requesting device's feature vector.
	resolutionPortable = "portable"
)

// resolvedModel is the outcome of predict/top-M model resolution: the
// servable (bound) model, the key it serves under, the resolution label,
// and the registry slot's serve state for it. Inline-descriptor
// resolutions are ephemeral (state nil): their keys are
// client-controlled, so keeping state under them would grow without
// bound, and the same name may describe different hardware across
// requests.
type resolvedModel struct {
	model *core.Model
	key   ModelKey
	via   string
	state *serveState
}

// resolve maps a prediction request to a servable model, in the
// documented resolution order (see modelResolutionOrder):
//
//  1. exact — the registry's <benchmark>@<device> model (skipped when an
//     inline descriptor is given: a descriptor explicitly requests
//     device-featurised resolution);
//  2. portable — the <benchmark>@* model bound to the requesting
//     device's feature vector, derived from the devsim catalog for a
//     known device name or from the inline descriptor for unseen
//     hardware.
//
// On a sharded instance it first checks ownership of the addressed
// benchmark@device key and refuses non-owned keys with errKindNotOwner
// naming the owner.
func (s *Server) resolve(benchmark, device string, desc *devsim.Descriptor) (resolvedModel, *Error) {
	fail := func(kind, format string, args ...any) (resolvedModel, *Error) {
		return resolvedModel{}, errf(kind, format, args...)
	}
	if benchmark == "" {
		return fail(errKindInvalid, "benchmark is required")
	}
	if device == PortableDevice {
		return fail(errKindInvalid,
			"device %q is the portable slot itself; pass the device to predict for (or an inline descriptor)", PortableDevice)
	}
	if device == "" && desc == nil {
		return fail(errKindInvalid, "device (or an inline descriptor) is required")
	}
	if desc != nil {
		if err := desc.Validate(); err != nil {
			return fail(errKindInvalid, "%v", err)
		}
	}
	label := device
	if label == "" {
		label = desc.Name
	}
	if err := s.checkOwner(ModelKey{Benchmark: benchmark, Device: label}); err != nil {
		return resolvedModel{}, err
	}

	if desc == nil {
		key := ModelKey{Benchmark: benchmark, Device: device}
		e, err := s.reg.slot(key)
		switch {
		case err == nil:
			if !e.model.Load().Portable() {
				st := s.slotState(key, e)
				return resolvedModel{model: st.model, key: key, via: resolutionExact, state: st}, nil
			}
			// A portable artifact stored under a concrete device name
			// (e.g. a renamed file): still servable, bound to that device.
			vec, verr := catalogVector(device)
			if verr != nil {
				return fail(errKindInvalid,
					"model %s is portable but %v; pass an inline descriptor", key, verr)
			}
			st, berr := s.boundState(key, e, vec)
			if berr != nil {
				return fail(errKindInternal, "%v", berr)
			}
			return resolvedModel{model: st.model, key: key, via: resolutionPortable, state: st}, nil
		case !errors.Is(err, ErrModelNotFound):
			return fail(errKindInternal, "%v", err)
		}
	}

	pkey := ModelKey{Benchmark: benchmark, Device: PortableDevice}
	pe, err := s.reg.slot(pkey)
	if errors.Is(err, ErrModelNotFound) {
		return fail(errKindNotFound,
			"no model for %s@%s and no portable %s model (submit a tuning job, or POST /v1/train with device %q)",
			benchmark, device, pkey, PortableDevice)
	}
	if err != nil {
		return fail(errKindInternal, "%v", err)
	}
	pm := pe.model.Load()
	if !pm.Portable() {
		return fail(errKindInternal,
			"model %s is not device-featurised; retrain it with device %q", pkey, PortableDevice)
	}
	if desc != nil {
		// Inline descriptors bind fresh per request and resolve as
		// ephemeral: nothing — bindings, scratch pools, top-M sweeps —
		// is memoised under a client-controlled key.
		bound, berr := pm.WithDevice(tuning.DeviceVector(desc, nil))
		if berr != nil {
			return fail(errKindInternal, "%v", berr)
		}
		return resolvedModel{model: bound, key: ModelKey{Benchmark: benchmark, Device: label},
			via: resolutionPortable}, nil
	}
	vec, verr := catalogVector(device)
	if verr != nil {
		return fail(errKindNotFound,
			"no model for %s@%s, and the portable %s model needs a descriptor: %v (pass an inline descriptor)",
			benchmark, device, pkey, verr)
	}
	key := ModelKey{Benchmark: benchmark, Device: device}
	st, berr := s.boundState(key, pe, vec)
	if berr != nil {
		return fail(errKindInternal, "%v", berr)
	}
	return resolvedModel{model: st.model, key: key, via: resolutionPortable, state: st}, nil
}

// configKeys returns the rendered config keys of the resolved model's
// space: its serve state's, or built for this request when the
// resolution is ephemeral.
func (rm resolvedModel) configKeys() *configKeys {
	if rm.state == nil {
		return newConfigKeys(rm.model.Space())
	}
	return rm.state.keys
}

// predictThrough predicts the configurations at idxs (indices of the
// resolved model's space) through the resolved model — pooled through
// the slot's serve state for registry-backed resolutions, a throwaway
// scratch for ephemeral ones.
func (s *Server) predictThrough(rm resolvedModel, idxs []int64, dst []float64) []float64 {
	if rm.state == nil {
		return rm.model.PredictIndices(idxs, rm.model.NewBatchScratch(), dst)
	}
	return rm.state.predictIndices(idxs, dst)
}

// topMThrough answers a top-M query through the resolved model;
// ephemeral resolutions pay the full sweep every time rather than
// keeping state under client-controlled keys.
func (s *Server) topMThrough(rm resolvedModel, M int) []Prediction {
	if rm.state != nil {
		return s.topMCached(rm.state, M)
	}
	return predictions(rm.model.TopM(M))
}

// predictions converts a top-M answer to API predictions.
func predictions(top []core.Predicted) []Prediction {
	out := make([]Prediction, len(top))
	for i, p := range top {
		out[i] = Prediction{Index: p.Index, Seconds: p.Seconds}
	}
	return out
}

// --- read-path API ----------------------------------------------------

// maxPredictBatch bounds one predict-batch request.
const maxPredictBatch = 10000

// maxTopM bounds one top-M response; the full candidate sweep stays
// cheap but serialising an unbounded request would not be. Requests
// beyond it are rejected, not clamped: silently returning fewer results
// than asked would misrepresent the response.
const maxTopM = 10000

// Predict answers one-configuration prediction requests.
func (s *Server) Predict(req *PredictRequest) (*PredictResponse, error) {
	rm, rerr := s.resolve(req.Benchmark, req.Device, req.Descriptor)
	if rerr != nil {
		return nil, rerr
	}
	space := rm.model.Space()
	var idx int64
	switch {
	case req.HasIndex && len(req.Config) > 0:
		return nil, errf(errKindInvalid, "pass exactly one of index or config")
	case req.HasIndex:
		if req.Index < 0 || req.Index >= space.Size() {
			return nil, errf(errKindInvalid, "index %d out of range [0, %d)", req.Index, space.Size())
		}
		idx = req.Index
	case len(req.Config) > 0:
		cfg, err := space.FromMap(req.Config)
		if err != nil {
			return nil, errf(errKindInvalid, "%v", err)
		}
		idx = cfg.Index()
	default:
		return nil, errf(errKindInvalid, "pass index=N or one c.<param>=<value> per tuning parameter")
	}
	secs := s.predictThrough(rm, []int64{idx}, nil)[0]
	return &PredictResponse{
		Benchmark:  rm.key.Benchmark,
		Device:     rm.key.Device,
		Resolution: rm.via,
		Prediction: Prediction{Index: idx, Seconds: secs},
		keys:       rm.configKeys(),
	}, nil
}

// PredictBatch answers batched prediction requests.
func (s *Server) PredictBatch(req *PredictBatchRequest) (*PredictBatchResponse, error) {
	if (len(req.Indices) == 0) == (len(req.Configs) == 0) {
		return nil, errf(errKindInvalid, "pass exactly one of indices or configs (non-empty)")
	}
	if n := len(req.Indices) + len(req.Configs); n > maxPredictBatch {
		return nil, errf(errKindInvalid, "batch of %d exceeds the limit of %d", n, maxPredictBatch)
	}
	rm, rerr := s.resolve(req.Benchmark, req.Device, req.Descriptor)
	if rerr != nil {
		return nil, rerr
	}
	space := rm.model.Space()
	n := len(req.Indices) + len(req.Configs)
	// A request carries indices or configs, never both: index requests
	// predict their own indices, config requests the configs' indices.
	idxs := req.Indices
	for _, idx := range idxs {
		if idx < 0 || idx >= space.Size() {
			return nil, errf(errKindInvalid, "index %d out of range [0, %d)", idx, space.Size())
		}
	}
	if len(req.Configs) > 0 {
		idxs = make([]int64, 0, n)
	}
	for i, values := range req.Configs {
		cfg, err := space.FromMap(values)
		if err != nil {
			return nil, errf(errKindInvalid, "config %d: %v", i, err)
		}
		idxs = append(idxs, cfg.Index())
	}
	secs := s.predictThrough(rm, idxs, make([]float64, 0, n))
	out := make([]Prediction, n)
	for i, idx := range idxs {
		out[i] = Prediction{Index: idx, Seconds: secs[i]}
	}
	return &PredictBatchResponse{
		Benchmark: rm.key.Benchmark, Device: rm.key.Device, Resolution: rm.via, Predictions: out,
		keys: rm.configKeys(),
	}, nil
}

// TopM answers top-M queries. M <= 0 takes the default of 10.
func (s *Server) TopM(req *TopMRequest) (*TopMResponse, error) {
	M := req.M
	if M == 0 {
		M = 10
	}
	if M < 0 {
		return nil, errf(errKindInvalid, "m must be a positive integer")
	}
	if M > maxTopM {
		return nil, errf(errKindInvalid, "m %d exceeds the limit of %d", M, maxTopM)
	}
	rm, rerr := s.resolve(req.Benchmark, req.Device, req.Descriptor)
	if rerr != nil {
		return nil, rerr
	}
	return &TopMResponse{
		Benchmark: rm.key.Benchmark, Device: rm.key.Device, Resolution: rm.via,
		M: M, Top: s.topMThrough(rm, M), keys: rm.configKeys(),
	}, nil
}

// --- listing / control-plane API --------------------------------------

// Models lists registry slots: all of them, or the delta past
// req.Since, optionally filtered by benchmark and by a shard spec.
func (s *Server) Models(req *ModelsRequest) (*ModelsResponse, error) {
	var ring *shardRing
	if req.Shard != "" {
		index, count, err := ParseShard(req.Shard)
		if err != nil {
			return nil, errf(errKindInvalid, "shard: %v", err)
		}
		ring = newShardRing(index, count)
	}
	// The slot set and the generation mark come from one snapshot, so a
	// delta poller that advances its cursor to the returned generation
	// cannot miss a concurrent model swap. The generation mark is
	// computed before any filtering: filtered-out slots still advance
	// the cursor (they are deliberately not wanted, not missed).
	models, gen := s.reg.ListSince(req.Since)
	if req.Benchmark != "" || ring != nil {
		filtered := make([]ModelInfo, 0, len(models))
		for _, info := range models {
			if req.Benchmark != "" && info.Benchmark != req.Benchmark {
				continue
			}
			// Portable slots belong to every shard: any owned key may
			// resolve through <benchmark>@*.
			if ring != nil && !ring.owns(ModelKey{Benchmark: info.Benchmark, Device: info.Device}) {
				continue
			}
			filtered = append(filtered, info)
		}
		models = filtered
	}
	return &ModelsResponse{
		Role:            s.role,
		Engine:          s.Engine(),
		Storage:         s.reg.Backend().Name(),
		Generation:      gen,
		Shard:           s.shardInfo(),
		ResolutionOrder: modelResolutionOrder,
		Models:          models,
	}, nil
}

// SampleSets describes the sample store: the full listing, one
// benchmark's sets, or (benchmark and device both given) one set's
// exact record count.
func (s *Server) SampleSets(benchmark, device string) (*SamplesResponse, error) {
	if benchmark == "" && device != "" {
		return nil, errf(errKindInvalid, "device alone is ambiguous: pass benchmark (and optionally device)")
	}
	if benchmark != "" && device != "" {
		// Exact-count view of one set (loads it, unlike the lazy list).
		key := ModelKey{Benchmark: benchmark, Device: device}
		n, err := s.samples.Count(key)
		if err != nil {
			return nil, errf(errKindInternal, "%v", err)
		}
		return &SamplesResponse{Exact: &SampleSetCount{Benchmark: benchmark, Device: device, Records: n}}, nil
	}
	all := s.samples.List()
	if benchmark != "" {
		// Benchmark-only filter: every device's set for this benchmark —
		// the enumeration behind pooled (device "*") training.
		out := make([]SampleSetInfo, 0, len(all))
		for _, info := range all {
			if info.Benchmark == benchmark {
				out = append(out, info)
			}
		}
		all = out
	}
	return &SamplesResponse{Sets: all}, nil
}

// Ingest validates and durably appends a sample batch.
func (s *Server) Ingest(req *sampleIngestRequest) (*IngestResponse, error) {
	if err := s.requireWritable(); err != nil {
		return nil, err
	}
	if req.Benchmark == "" || req.Device == "" {
		return nil, errf(errKindInvalid, "benchmark and device are required")
	}
	if req.Device == PortableDevice {
		return nil, errf(errKindInvalid,
			"ingest samples under their concrete device; POST /v1/train with device %q pools them", PortableDevice)
	}
	b, err := bench.Lookup(req.Benchmark)
	if err != nil {
		return nil, errf(errKindInvalid, "%v", err)
	}
	if len(req.Samples) == 0 {
		return nil, errf(errKindInvalid, "samples must be non-empty")
	}
	if len(req.Samples) > maxIngestBatch {
		return nil, errf(errKindInvalid, "batch of %d exceeds the limit of %d", len(req.Samples), maxIngestBatch)
	}
	space := b.Space()
	recs := make([]SampleRecord, len(req.Samples))
	for i, in := range req.Samples {
		rec, err := in.resolve(space, req.Source, i)
		if err != nil {
			return nil, errf(errKindInvalid, "%v", err)
		}
		recs[i] = rec
	}
	key := ModelKey{Benchmark: req.Benchmark, Device: req.Device}
	total, err := s.samples.Append(key, recs)
	if err != nil {
		return nil, errf(errKindInternal, "%v", err)
	}
	return &IngestResponse{Benchmark: req.Benchmark, Device: req.Device, Ingested: len(recs), Total: total}, nil
}

// Submit queues a tuning or training job.
func (s *Server) Submit(spec JobSpec) (*JobStatus, error) {
	if err := s.requireWritable(); err != nil {
		return nil, err
	}
	if err := spec.normalize(); err != nil {
		return nil, errf(errKindInvalid, "%v", err)
	}
	// Training jobs get the same fail-fast as POST /v1/train: the two
	// entry points must enforce identical limits.
	if spec.Kind == KindTrain {
		if err := s.trainFailFast(spec); err != nil {
			return nil, err
		}
	}
	j, err := s.queue.Submit(spec)
	if err != nil {
		return nil, asError(err)
	}
	st := j.status()
	return &st, nil
}

// Jobs lists every job the queue knows about.
func (s *Server) Jobs() []JobStatus {
	jobs := s.queue.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Job returns one job's status plus its observer events after the
// given sequence number (-1 = from the start).
func (s *Server) Job(id string, after int) (*JobWithEvents, error) {
	j, ok := s.queue.Get(id)
	if !ok {
		return nil, errf(errKindNotFound, "no job %q", id)
	}
	evs, dropped := j.eventsAfter(after)
	return &JobWithEvents{JobStatus: j.status(), Events: evs, EventsDropped: dropped}, nil
}

// Cancel cancels a queued or running job.
func (s *Server) Cancel(id string) (*JobStatus, error) {
	if err := s.requireWritable(); err != nil {
		return nil, err
	}
	j, err := s.queue.Cancel(id)
	if err != nil {
		return nil, errf(errKindNotFound, "%v", err)
	}
	st := j.status()
	return &st, nil
}

// Train validates a training request and queues the async job.
func (s *Server) Train(req *trainRequest) (*JobStatus, error) {
	if err := s.requireWritable(); err != nil {
		return nil, err
	}
	spec := JobSpec{
		Kind:       KindTrain,
		Benchmark:  req.Benchmark,
		Device:     req.Device,
		Seed:       req.Seed,
		Model:      req.Model,
		MinSamples: req.MinSamples,
		Workers:    req.Workers,
	}
	if len(req.Samples) > maxIngestBatch {
		return nil, errf(errKindInvalid, "inline batch of %d exceeds the limit of %d", len(req.Samples), maxIngestBatch)
	}
	if len(req.Samples) > 0 {
		b, err := bench.Lookup(req.Benchmark)
		if err != nil {
			return nil, errf(errKindInvalid, "%v", err)
		}
		space := b.Space()
		spec.Samples = make([]SampleRecord, len(req.Samples))
		for i, in := range req.Samples {
			rec, err := in.resolve(space, "inline", i)
			if err != nil {
				return nil, errf(errKindInvalid, "%v", err)
			}
			spec.Samples[i] = rec
		}
	}
	if err := spec.normalize(); err != nil {
		return nil, errf(errKindInvalid, "%v", err)
	}
	// Fail fast when nothing could possibly train: fewer valid samples
	// than the floor — inline, stored or pooled — is a doomed job, as is
	// a portable job with fewer than two contributing devices.
	if err := s.trainFailFast(spec); err != nil {
		return nil, err
	}
	j, err := s.queue.Submit(spec)
	if err != nil {
		return nil, asError(err)
	}
	st := j.status()
	return &st, nil
}

// ReloadModels rescans the registry backend; the fresh slots drop every
// loaded model with its read-path state.
func (s *Server) ReloadModels() (*ReloadResponse, error) {
	if err := s.reg.Reload(); err != nil {
		return nil, errf(errKindInternal, "%v", err)
	}
	return &ReloadResponse{Models: s.reg.Len()}, nil
}

// Stats snapshots the daemon's operational state.
func (s *Server) Stats() *StatsResponse {
	resp := &StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Role:          s.role,
		Engine:        s.Engine(),
		Storage:       storageInfo{Models: s.reg.Backend().Name(), Samples: s.samples.Backend().Name()},
		Shard:         s.shardInfo(),
		Generation:    s.reg.Generation(),
		Models:        s.reg.Len(),
		SampleSets:    s.samples.Len(),
		Jobs:          s.queue.Counts(),
		MaxInflight:   cap(s.readSem),
		Telemetry:     s.metrics.reg.Snapshot(),
	}
	if ns := s.lastSwap.Load(); ns != 0 {
		age := time.Since(time.Unix(0, ns)).Seconds()
		resp.LastSwapAgeSeconds = &age
	}
	if s.repl != nil {
		resp.Replication = s.repl.status()
	}
	return resp
}

// Health is pure liveness: the process is up and serving.
func (s *Server) Health() *HealthResponse {
	return &HealthResponse{
		OK:            true,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Models:        s.reg.Len(),
		SampleSets:    s.samples.Len(),
		Jobs:          s.queue.Counts(),
	}
}

// Ready is the load-balancer routing signal: not ready once Drain has
// begun (stop routing before shutdown completes), while the job queue
// is at capacity (new submissions would be rejected anyway), or — on a
// serve replica with an upstream — until the first successful sync
// (before it the replica may hold no, or stale, models). The read path
// keeps serving in the first two cases — readiness gates routing of
// new traffic, not in-flight work.
func (s *Server) Ready() *Readiness {
	notReady := func(reason string) *Readiness {
		return &Readiness{Reason: reason, Kind: errKindNotReady, Err: reason}
	}
	switch {
	case s.queue.Draining():
		return notReady("draining: shutdown in progress")
	case s.queue.AtCapacity():
		return notReady("job queue at capacity")
	case s.repl != nil && !s.repl.synced():
		return notReady("replica awaiting its first successful upstream sync")
	default:
		return &Readiness{Ready: true}
	}
}

// requireWritable gates mutating operations by role: a serve-plane
// replica answers errKindReadOnly instead of accepting writes its
// upstream would overwrite on the next sync.
func (s *Server) requireWritable() *Error {
	if s.role != RoleServe {
		return nil
	}
	return errf(errKindReadOnly,
		"this instance is a read-only serve replica (role %q); send writes to the train plane", s.role)
}

// trainFailFast runs the shared submission-time checks of a training
// job (POST /v1/train and POST /v1/jobs must enforce identical
// limits), reporting nil when the job may queue.
func (s *Server) trainFailFast(spec JobSpec) *Error {
	n, devices, err := s.trainPreflight(spec)
	if err != nil {
		return errf(errKindInternal, "%v", err)
	}
	if spec.Key().Portable() && devices < 2 {
		return errf(errKindInvalid,
			"portable training for %s pools samples from at least 2 catalog devices, have %d (ingest per-device via POST /v1/samples)",
			spec.Key(), devices)
	}
	if n < spec.MinSamples {
		return errf(errKindInvalid,
			"%d valid samples for %s, need at least %d (ingest via POST /v1/samples or inline samples)",
			n, spec.Key(), spec.MinSamples)
	}
	return nil
}

// parseAfter parses a job-events cursor query value.
func parseAfter(v string) (int, *Error) {
	if v == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, errf(errKindInvalid, "after: %v", err)
	}
	return n, nil
}
