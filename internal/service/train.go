package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/tuning"
)

// ModelSpec is the JSON model configuration of training jobs. It
// mirrors core.ModelConfig with one difference: LogTransform is
// tri-state — an omitted field means the paper default (on), so an API
// client that only tunes ensemble knobs cannot silently fall into the
// ablation mode core.FillModelConfig reserves for explicitly configured
// ensembles. Pass "log_transform": false to request the ablation.
type ModelSpec struct {
	Ensemble       ann.EnsembleConfig `json:"ensemble,omitempty"`
	LogTransform   *bool              `json:"log_transform,omitempty"`
	InvalidPenalty float64            `json:"invalid_penalty,omitempty"`
}

// config resolves the spec (nil = all defaults) to a filled
// core.ModelConfig.
func (ms *ModelSpec) config(seed int64) core.ModelConfig {
	cfg := core.ModelConfig{}
	if ms != nil {
		cfg.Ensemble = ms.Ensemble
		cfg.InvalidPenalty = ms.InvalidPenalty
	}
	cfg = core.FillModelConfig(cfg, seed)
	cfg.LogTransform = ms == nil || ms.LogTransform == nil || *ms.LogTransform
	return cfg
}

// train executes one training job: load the samples (inline or from the
// store), fit the paper's model on the bounded worker pool, and
// atomically swap it into the registry. It is the queue's worker body
// for KindTrain jobs. Progress surfaces on the job's seq-numbered event
// stream as "train-progress" records, one per trained ensemble member.
// Jobs keyed device "*" train the benchmark's portable model instead,
// pooling samples across devices (see trainPortable).
func (s *Server) train(ctx context.Context, j *Job) (*core.Result, bool, error) {
	spec := j.Spec
	b, err := bench.Lookup(spec.Benchmark)
	if err != nil {
		return nil, false, err
	}
	space := b.Space()

	var samples []core.Sample
	var invalid []tuning.Config
	cfg := spec.Model.config(spec.Seed)
	cfg.Ensemble.Workers = s.trainBudget(spec.Workers)

	if spec.Key().Portable() {
		sets, err := s.pooledSets(spec)
		if err != nil {
			return nil, false, err
		}
		var devices, skipped []string
		samples, devices, skipped = pooledSamples(space, sets)
		rec := EventRecord{Kind: "pooled-devices", Stage: "train",
			Done: len(devices), Total: len(devices) + len(skipped)}
		if len(skipped) > 0 {
			rec.Error = "skipped: " + strings.Join(skipped, "; ")
		}
		j.observeRecord(rec)
		if len(devices) < 2 {
			return nil, false, fmt.Errorf("service: portable training for %s pools samples from at least 2 catalog devices, have %d %v",
				spec.Key(), len(devices), devices)
		}
		// The portable schema replaces the invalid-penalty extension:
		// validity is device-specific, so invalid records were dropped
		// per device by pooledSamples instead of being penalised.
		cfg.DeviceFeatures = true
		cfg.InvalidPenalty = 0
	} else {
		recs := spec.Samples
		if len(recs) == 0 {
			recs, err = s.samples.Load(spec.Key())
			if err != nil {
				return nil, false, err
			}
		}
		samples, invalid = splitRecords(space, recs)
	}
	if len(samples) < spec.MinSamples {
		return nil, false, fmt.Errorf("service: %d valid samples for %s, need at least %d (ingest more via POST /v1/samples)",
			len(samples), spec.Key(), spec.MinSamples)
	}

	j.observe(core.Event{Kind: core.EventStageStarted, Stage: "train"})
	s.metrics.trainSamplesUsed.Add(len(samples))
	t0 := time.Now()
	// Progress callbacks are serialised by the trainer, so the delta
	// between consecutive events is one member's training time (first
	// event measured from the training start).
	last := t0
	model, err := core.TrainModelProgress(ctx, space, samples, invalid, cfg, func(done, total int) {
		now := time.Now()
		s.metrics.trainMemberDuration.Observe(now.Sub(last).Seconds())
		last = now
		j.observeRecord(EventRecord{Kind: "train-progress", Stage: "train", Done: done, Total: total})
	})
	if err != nil {
		return nil, false, err
	}
	j.observe(core.Event{Kind: core.EventStageFinished, Stage: "train"})
	// A cancellation that raced the last member must not swap the model:
	// the client asked for the job to stop, not for a surprise deploy.
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}

	res := &core.Result{Strategy: "train", Model: model, Measured: len(samples), Invalid: len(invalid)}
	res.Cost.TrainSeconds = time.Since(t0).Seconds()
	if err := s.swapModel(spec.Key(), func() error { return s.reg.Put(spec.Key(), model) }); err != nil {
		return res, false, err
	}
	return res, true, nil
}

// trainBudget clamps a job's requested training parallelism to the
// server's worker budget (<=0 requests the full budget).
func (s *Server) trainBudget(requested int) int {
	if requested <= 0 || requested > s.trainWorkers {
		return s.trainWorkers
	}
	return requested
}

// trainPreflight reports what a training job would see before it is
// queued: the valid-sample count (inline batch, stored set, or — for a
// portable job — the pool across catalog-resolvable devices) and, for
// portable jobs, how many distinct devices contribute. The error is a
// store read failure, not a shortage; callers compare the counts to
// MinSamples and the two-device floor.
func (s *Server) trainPreflight(spec JobSpec) (n, devices int, err error) {
	b, err := bench.Lookup(spec.Benchmark)
	if err != nil {
		return 0, 0, err
	}
	space := b.Space()
	if spec.Key().Portable() {
		sets, err := s.pooledSets(spec)
		if err != nil {
			return 0, 0, err
		}
		samples, used, _ := pooledSamples(space, sets)
		return len(samples), len(used), nil
	}
	recs := spec.Samples
	if len(recs) == 0 {
		recs, err = s.samples.Load(spec.Key())
		if err != nil {
			return 0, 0, err
		}
	}
	samples, _ := splitRecords(space, recs)
	if len(samples) > 0 {
		devices = 1
	}
	return len(samples), devices, nil
}

// pooledSets groups a portable training job's records by device label:
// the inline samples by their per-record Device field, otherwise one
// stored set per device of the benchmark. The portable slot itself never
// contributes (nothing is ever stored under device "*").
func (s *Server) pooledSets(spec JobSpec) (map[string][]SampleRecord, error) {
	sets := make(map[string][]SampleRecord)
	if len(spec.Samples) > 0 {
		for _, rec := range spec.Samples {
			sets[rec.Device] = append(sets[rec.Device], rec)
		}
		return sets, nil
	}
	for _, key := range s.samples.Keys() {
		if key.Benchmark != spec.Benchmark || key.Portable() {
			continue
		}
		recs, err := s.samples.Load(key)
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			sets[key.Device] = recs
		}
	}
	return sets, nil
}

// catalogVector resolves a device label to its normalised feature vector
// via the devsim catalog.
func catalogVector(label string) ([]float64, error) {
	d, err := devsim.Lookup(label)
	if err != nil {
		return nil, err
	}
	desc := d.Descriptor()
	return tuning.DeviceVector(&desc, nil), nil
}

// pooledSamples resolves per-device record sets into device-featurised
// training samples: each valid record becomes a core.Sample carrying its
// device's feature vector. Devices whose labels have no catalog
// descriptor are skipped (external measurers may store sets under labels
// the daemon cannot featurise), as are devices contributing no valid
// record and all invalid-config records — validity is device-specific
// and the portable model only learns from measurements. Each skipped
// entry carries its reason, surfaced on the job's pooled-devices event.
// Devices are processed in sorted label order so the training set, and
// therefore the trained model, is deterministic.
func pooledSamples(space *tuning.Space, sets map[string][]SampleRecord) (samples []core.Sample, devices, skipped []string) {
	labels := make([]string, 0, len(sets))
	for label := range sets {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		vec, err := catalogVector(label)
		if err != nil {
			skipped = append(skipped, label+" (no descriptor in the devsim catalog)")
			continue
		}
		valid, _ := splitRecords(space, sets[label])
		if len(valid) == 0 {
			skipped = append(skipped, label+" (no valid samples)")
			continue
		}
		for _, sm := range valid {
			sm.Device = vec
			samples = append(samples, sm)
		}
		devices = append(devices, label)
	}
	return samples, devices, skipped
}

// splitRecords resolves stored records against the space: valid records
// become training samples, invalid ones the penalty list. Records whose
// index fell outside the space (a stale file from a changed benchmark)
// are dropped.
func splitRecords(space *tuning.Space, recs []SampleRecord) (samples []core.Sample, invalid []tuning.Config) {
	for _, rec := range recs {
		if rec.Index < 0 || rec.Index >= space.Size() {
			continue
		}
		cfg := space.At(rec.Index)
		if rec.Invalid {
			invalid = append(invalid, cfg)
			continue
		}
		if rec.Seconds <= 0 {
			continue
		}
		samples = append(samples, core.Sample{Config: cfg, Seconds: rec.Seconds})
	}
	return samples, invalid
}

// feedStore appends a finished tuning job's fresh measurements to the
// sample store, so every tuning run grows the training set future
// retrains draw from. Store failures must not fail a tuning job that
// already succeeded; they surface as an event record instead.
func (s *Server) feedStore(j *Job, res *core.Result) {
	recs := recordsFromResult(res, "job:"+j.ID)
	if len(recs) == 0 {
		return
	}
	total, err := s.samples.Append(j.Spec.Key(), recs)
	rec := EventRecord{Kind: "samples-stored", Stage: "ingest", Done: len(recs), Total: total}
	if err != nil {
		rec.Error = err.Error()
	}
	j.observeRecord(rec)
}

// recordsFromResult flattens a tuning result's stage-1 and stage-2
// measurements into store records, deduplicating by index (stage-2
// candidates often overlap stage-1 samples).
func recordsFromResult(res *core.Result, source string) []SampleRecord {
	if res == nil {
		return nil
	}
	seen := make(map[int64]bool, len(res.Samples)+len(res.SecondStage))
	recs := make([]SampleRecord, 0, len(res.Samples)+len(res.SecondStage))
	add := func(samples []core.Sample) {
		for _, sm := range samples {
			idx := sm.Config.Index()
			if seen[idx] {
				continue
			}
			seen[idx] = true
			recs = append(recs, SampleRecord{Index: idx, Seconds: sm.Seconds, Source: source})
		}
	}
	add(res.Samples)
	add(res.SecondStage)
	return recs
}

// --- HTTP handlers ----------------------------------------------------

// maxIngestBatch bounds one POST /v1/samples request; clients stream
// larger sets in batches.
const maxIngestBatch = 10000

// maxIngestBytes bounds the POST /v1/samples and POST /v1/train bodies.
const maxIngestBytes = 4 << 20

// sampleInput is one ingested sample: exactly one of Index (dense space
// index) or Config (parameter map, every parameter present) identifies
// the configuration. Source, when set, overrides the request-level
// source label, so a replayed sample file keeps its provenance. Device
// names the device the measurement was taken on; it is required per
// sample on the inline batch of a portable (device "*") training job
// and informational elsewhere.
type sampleInput struct {
	Index   *int64         `json:"index,omitempty"`
	Config  map[string]int `json:"config,omitempty"`
	Seconds float64        `json:"seconds,omitempty"`
	Invalid bool           `json:"invalid,omitempty"`
	Source  string         `json:"source,omitempty"`
	Device  string         `json:"device,omitempty"`
}

// sampleIngestRequest is the POST /v1/samples body.
type sampleIngestRequest struct {
	Benchmark string        `json:"benchmark"`
	Device    string        `json:"device"`
	Source    string        `json:"source,omitempty"`
	Samples   []sampleInput `json:"samples"`
}

// resolve validates one input against the space and returns the
// canonical record.
func (in sampleInput) resolve(space *tuning.Space, source string, i int) (SampleRecord, error) {
	if (in.Index == nil) == (len(in.Config) == 0) {
		return SampleRecord{}, fmt.Errorf("sample %d: pass exactly one of index or config", i)
	}
	var idx int64
	if in.Index != nil {
		idx = *in.Index
		if idx < 0 || idx >= space.Size() {
			return SampleRecord{}, fmt.Errorf("sample %d: index %d out of range [0, %d)", i, idx, space.Size())
		}
	} else {
		cfg, err := space.FromMap(in.Config)
		if err != nil {
			return SampleRecord{}, fmt.Errorf("sample %d: %v", i, err)
		}
		idx = cfg.Index()
	}
	if !in.Invalid && in.Seconds <= 0 {
		return SampleRecord{}, fmt.Errorf("sample %d: non-positive time %g", i, in.Seconds)
	}
	if in.Source != "" {
		source = in.Source
	}
	rec := SampleRecord{Index: idx, Invalid: in.Invalid, Source: source, Device: in.Device}
	if !in.Invalid {
		rec.Seconds = in.Seconds
	}
	return rec, nil
}

func (s *Server) handleSamplesIngest(w http.ResponseWriter, r *http.Request) {
	var req sampleIngestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeAPIError(w, errf(errKindInvalid, "decoding sample batch: %v", err))
		return
	}
	resp, err := s.Ingest(&req)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSamplesList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	resp, err := s.SampleSets(q.Get("benchmark"), q.Get("device"))
	if err != nil {
		writeAPIError(w, err)
		return
	}
	// The two views keep their historical shapes: a bare array for the
	// (possibly filtered) listing, an object for the exact count.
	if resp.Exact != nil {
		writeJSON(w, http.StatusOK, resp.Exact)
		return
	}
	writeJSON(w, http.StatusOK, resp.Sets)
}

// trainRequest is the POST /v1/train body: the model key plus optional
// model configuration and inline samples. Device "*" trains the
// benchmark's portable model from every catalog device's stored samples
// (or from inline samples carrying per-record device labels).
type trainRequest struct {
	Benchmark string `json:"benchmark"`
	Device    string `json:"device"`
	// Seed drives model initialisation (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Model configures the trained model; zero-valued fields take the
	// paper defaults.
	Model *ModelSpec `json:"model,omitempty"`
	// Samples inlines the training set; when empty the job trains from
	// the persistent sample store (ingest via POST /v1/samples first).
	Samples []sampleInput `json:"samples,omitempty"`
	// MinSamples fails the job when fewer valid samples are available
	// (0 = 10).
	MinSamples int `json:"min_samples,omitempty"`
	// Workers bounds the parallel ensemble training (0 = the server's
	// -train-workers budget). Never affects the trained weights.
	Workers int `json:"workers,omitempty"`
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req trainRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeAPIError(w, errf(errKindInvalid, "decoding train request: %v", err))
		return
	}
	st, err := s.Train(&req)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}
