package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/devsim"
	"repro/internal/tuning"
)

// Options configures one auto-tuning run (the knobs of Figure 3).
type Options struct {
	// TrainingSamples is N: the number of *valid* measured
	// configurations used to train the model (paper: 100-4000).
	TrainingSamples int
	// SecondStage is M: the number of best-predicted configurations
	// measured in the second stage (paper: 10-200, large spaces 300).
	SecondStage int
	// Seed drives sampling and model initialization.
	Seed int64
	// Model configures the performance model. Zero-valued fields are
	// filled with the paper's defaults field by field, so a partially
	// specified config keeps everything the caller set; a wholly zero
	// value means the paper's defaults (log transform, k=11, 30 hidden
	// neurons).
	Model ModelConfig
	// MaxAttempts bounds the stage-1 draws used to find valid
	// configurations (0 = 4*N + 1000). Spaces with many invalid regions
	// may exhaust it, in which case the tuner trains on what it has.
	MaxAttempts int
	// Budget bounds the total measurements of the budgeted search
	// strategies ("random", "hillclimb"). 0 means TrainingSamples +
	// SecondStage, giving every strategy the same spend by default.
	Budget int
	// Restarts is the random-restart count of "hillclimb" (0 = 1).
	Restarts int
}

// DefaultOptions returns the configuration highlighted in the paper's
// results (N=2000, M=200).
func DefaultOptions(seed int64) Options {
	return Options{
		TrainingSamples: 2000,
		SecondStage:     200,
		Seed:            seed,
		Model:           DefaultModelConfig(seed),
	}
}

// budget returns the measurement budget of the budgeted strategies.
func (o Options) budget() int {
	if o.Budget > 0 {
		return o.Budget
	}
	return o.TrainingSamples + o.SecondStage
}

// CostReport accounts for where tuning time goes (paper §6: gathering
// data dominates; training is comparatively cheap). Gather time is
// *simulated* (compile + runs + invalid attempts); train/predict times
// are real wall-clock.
type CostReport struct {
	// GatherSeconds is the simulated cost of stage-1 data collection:
	// kernel builds, benchmark runs and failed attempts. Samples served
	// from the session's memo cache cost nothing.
	GatherSeconds float64
	// SecondStageSeconds is the simulated cost of stage-2 measurements.
	// Candidates already measured in stage 1 are served from the
	// session's memo cache and cost nothing.
	SecondStageSeconds float64
	// TrainSeconds is the wall-clock model training time.
	TrainSeconds float64
	// PredictSeconds is the wall-clock full-space prediction time.
	PredictSeconds float64
}

// Result is the outcome of one strategy run. All strategies share it:
// the baseline searches fill the search-result core (Found, Best,
// BestSeconds, Measured, Invalid), the ML tuner additionally reports its
// stages, model and cost breakdown.
type Result struct {
	// Strategy is the registry name of the strategy that produced this
	// result ("ml", "random", "hillclimb", "exhaustive", ...).
	Strategy string

	// Found reports whether any valid configuration was measured. When
	// false the tuner "gives no prediction at all" (paper §7).
	Found bool
	// Best is the fastest configuration found, valid only when Found.
	Best tuning.Config
	// BestSeconds is Best's measured time.
	BestSeconds float64
	// Measured counts distinct valid measurements; Invalid counts
	// distinct failed ones. Re-evaluations served from the session's
	// memo cache are not counted again.
	Measured, Invalid int

	// Samples holds the valid stage-1 measurements (the training set).
	// Only the "ml" strategy fills it.
	Samples []Sample
	// InvalidTrain counts stage-1 draws that turned out invalid.
	InvalidTrain int
	// Attempts counts all stage-1 draws.
	Attempts int

	// SecondStage holds the valid stage-2 measurements.
	SecondStage []Sample
	// InvalidSecond counts stage-2 candidates that turned out invalid.
	InvalidSecond int
	// Predicted holds the model's predictions for the stage-2
	// candidates, aligned with the order they were measured in.
	Predicted []Predicted

	// MeasuredFraction is the share of the space actually executed
	// (paper: as low as 0.1%): distinct configurations run by this
	// strategy, so stage-2 candidates replayed from the measurement cache
	// are not double-counted.
	MeasuredFraction float64

	// Model is the trained performance model (reusable for analysis,
	// and persistable with Model.Save). Only the "ml" strategy fills it.
	Model *Model
	// Cost breaks down where the tuning time went.
	Cost CostReport
}

// accept folds one valid measurement into the result's best-so-far,
// reporting whether it became the new best.
func (r *Result) accept(cfg tuning.Config, secs float64) bool {
	if r.Found && secs >= r.BestSeconds {
		return false
	}
	r.Found = true
	r.Best = cfg
	r.BestSeconds = secs
	return true
}

// mlStrategy is the paper's primary contribution: the two-stage
// machine-learning auto-tuner (§5, Figure 3), re-expressed as a session
// strategy.
type mlStrategy struct{}

func (mlStrategy) Name() string { return "ml" }

func (mlStrategy) Description() string {
	return "two-stage ML tuner: train a bagged ANN on random samples, measure its top-M predictions (paper §5)"
}

func (mlStrategy) Run(ctx context.Context, s *Session) (*Result, error) {
	opts := s.Options()
	if opts.TrainingSamples <= 0 {
		return nil, fmt.Errorf("core: TrainingSamples must be positive, got %d", opts.TrainingSamples)
	}
	if opts.SecondStage <= 0 {
		return nil, fmt.Errorf("core: SecondStage must be positive, got %d", opts.SecondStage)
	}
	m := s.Measurer()
	space := s.Space()
	res := &Result{}

	// --- Stage 1: gather training data -----------------------------------
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 4*opts.TrainingSamples + 1000
	}
	if int64(maxAttempts) > space.Size() {
		maxAttempts = int(space.Size())
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	idxs := space.SampleIndices(rng, maxAttempts)

	var invalidCfgs []tuning.Config
	outs, tailOuts, consumed, err := s.gather(ctx, "gather", idxs, opts.TrainingSamples, nil)
	if err != nil {
		return nil, err
	}
	res.Samples = make([]Sample, 0, opts.TrainingSamples)
	freshGatherValid, freshGatherInvalid := 0, 0
	for i, o := range outs {
		cfg := space.At(idxs[i])
		if !o.cached {
			res.Cost.GatherSeconds += compileCost(m, cfg)
		}
		if o.mt.err != nil {
			if !o.cached {
				freshGatherInvalid++
			}
			invalidCfgs = append(invalidCfgs, cfg)
			continue
		}
		if !o.cached {
			freshGatherValid++
			res.Cost.GatherSeconds += o.mt.secs
		}
		res.Samples = append(res.Samples, Sample{Config: cfg, Seconds: o.mt.secs})
	}
	// Measurements the gather pool performed beyond the needValid cut are
	// discarded, not free: charge their compile/run cost and remember how
	// many configurations they executed.
	tailExecuted := 0
	for k, o := range tailOuts {
		if o.cached || (o.mt.err != nil && !devsim.IsInvalid(o.mt.err)) {
			continue // cache hit, or a transient error that never ran
		}
		tailExecuted++
		cfg := space.At(idxs[consumed+k])
		res.Cost.GatherSeconds += compileCost(m, cfg)
		if o.mt.err == nil {
			res.Cost.GatherSeconds += o.mt.secs
		}
	}
	res.InvalidTrain = len(invalidCfgs)
	res.Attempts = consumed
	if len(res.Samples) == 0 {
		return nil, fmt.Errorf("core: no valid configurations among %d attempts", consumed)
	}
	if err := ctx.Err(); err != nil {
		return nil, &PartialError{Stage: "gather", Measured: len(res.Samples), Err: err}
	}

	// --- Train the model ---------------------------------------------------
	s.emit(Event{Kind: EventStageStarted, Stage: "train"})
	t0 := time.Now()
	model, err := TrainModel(space, res.Samples, invalidCfgs, opts.Model)
	if err != nil {
		return nil, err
	}
	res.Model = model
	res.Cost.TrainSeconds = time.Since(t0).Seconds()
	s.emit(Event{Kind: EventStageFinished, Stage: "train"})
	if err := ctx.Err(); err != nil {
		return nil, &PartialError{Stage: "train", Measured: len(res.Samples), Err: err}
	}

	// --- Predict the whole space, pick the M most promising ----------------
	t0 = time.Now()
	top := model.TopM(opts.SecondStage)
	res.Predicted = top
	res.Cost.PredictSeconds = time.Since(t0).Seconds()

	// --- Stage 2: measure the candidates ------------------------------------
	cand := make([]int64, len(top))
	for i, p := range top {
		cand[i] = p.Index
	}
	res.SecondStage = make([]Sample, 0, len(cand))
	outs2, _, _, err := s.gather(ctx, "second-stage", cand, 0, func(cfg tuning.Config, mt measurement) {
		if mt.err != nil {
			res.InvalidSecond++
			return
		}
		res.SecondStage = append(res.SecondStage, Sample{Config: cfg, Seconds: mt.secs})
		if res.accept(cfg, mt.secs) {
			s.emit(Event{Kind: EventCandidateAccepted, Stage: "second-stage", Config: cfg, Seconds: mt.secs})
		}
	})
	if err != nil {
		return nil, err
	}
	freshSecond, freshInvalidSecond := 0, 0
	for i, o := range outs2 {
		if o.cached {
			continue
		}
		if o.mt.err == nil {
			freshSecond++
			res.Cost.SecondStageSeconds += compileCost(m, space.At(cand[i])) + o.mt.secs
		} else {
			freshInvalidSecond++
			res.Cost.SecondStageSeconds += compileCost(m, space.At(cand[i]))
		}
	}

	// Configurations served from the memo cache (stage-2 overlap with
	// stage 1, or any stage replayed on a reused session) were not
	// executed by this run: Measured/Invalid count distinct fresh
	// measurements only, and MeasuredFraction the share of *distinct
	// executed* configurations — fresh stage-1 attempts, any discarded
	// gather tail, and the stage-2 candidates that actually ran.
	res.Measured = freshGatherValid + freshSecond
	res.Invalid = freshGatherInvalid + freshInvalidSecond
	executed := freshGatherValid + freshGatherInvalid + tailExecuted + freshSecond + freshInvalidSecond
	res.MeasuredFraction = float64(executed) / float64(space.Size())
	return res, nil
}

// compileCost returns the simulated kernel build time when the measurer
// can report it.
func compileCost(m Measurer, cfg tuning.Config) float64 {
	if c, ok := m.(Coster); ok {
		return c.CompileSeconds(cfg)
	}
	return 0
}
