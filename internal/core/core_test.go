package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/devsim"
	"repro/internal/opencl"
	"repro/internal/tuning"
)

// quadSpace is a small synthetic tuning problem with a known optimum at
// (8, 8): time = (log2 x - 3)^2 + (log2 y - 3)^2 + 0.5.
func quadSpace() (*tuning.Space, *FuncMeasurer) {
	space := tuning.NewSpace("quad",
		tuning.Pow2Param("x", 1, 128),
		tuning.Pow2Param("y", 1, 128),
		tuning.BoolParam("z"),
	)
	m := &FuncMeasurer{
		TuningSpace: space,
		Fn: func(cfg tuning.Config) (float64, error) {
			lx := math.Log2(float64(cfg.Value("x")))
			ly := math.Log2(float64(cfg.Value("y")))
			t := (lx-3)*(lx-3) + (ly-3)*(ly-3) + 0.5
			if cfg.Bool("z") {
				t *= 1.5
			}
			return t, nil
		},
	}
	return space, m
}

// runStrategy runs the named strategy on a one-shot session.
func runStrategy(m Measurer, opts Options, name string) (*Result, error) {
	s, err := NewSession(m, opts)
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background(), name)
}

func fastModelConfig(seed int64) ModelConfig {
	mc := DefaultModelConfig(seed)
	mc.Ensemble.K = 3
	mc.Ensemble.Train = ann.TrainConfig{Epochs: 500, LearningRate: 0.4, LRDecay: 0.997, Momentum: 0.9, BatchSize: 4}
	return mc
}

func TestTuneFindsQuadOptimum(t *testing.T) {
	_, m := quadSpace()
	opts := Options{TrainingSamples: 60, SecondStage: 30, Seed: 1, Model: fastModelConfig(1)}
	res, err := runStrategy(m, opts, "ml")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("tuner found nothing")
	}
	// Global optimum is 0.5 at (8,8,0). The model cannot resolve the well
	// exactly from 60 samples, but the two-stage search must land close:
	// within 2x of the optimum, far better than the space median (~9).
	if res.BestSeconds > 1.0 {
		t.Errorf("tuned to %v (%v), optimum is 0.5", res.BestSeconds, res.Best)
	}
	if len(res.Samples) != 60 {
		t.Errorf("training samples = %d", len(res.Samples))
	}
	if res.MeasuredFraction <= 0 || res.MeasuredFraction > 1 {
		t.Errorf("measured fraction = %v", res.MeasuredFraction)
	}
	if res.Model == nil {
		t.Error("result has no model")
	}
}

func TestTuneValidation(t *testing.T) {
	_, m := quadSpace()
	if _, err := runStrategy(m, Options{TrainingSamples: 0, SecondStage: 5}, "ml"); err == nil {
		t.Error("zero training samples accepted")
	}
	if _, err := runStrategy(m, Options{TrainingSamples: 5, SecondStage: 0}, "ml"); err == nil {
		t.Error("zero second stage accepted")
	}
	if _, err := runStrategy(nil, Options{TrainingSamples: 5, SecondStage: 5}, "ml"); err == nil {
		t.Error("nil measurer accepted")
	}
}

func TestTuneHandlesInvalidConfigs(t *testing.T) {
	space, base := quadSpace()
	m := &FuncMeasurer{
		TuningSpace: space,
		Fn: func(cfg tuning.Config) (float64, error) {
			// Half the space is invalid.
			if cfg.Value("x") > 8 {
				return 0, &devsim.StaticError{Device: "synthetic", Reason: "x too large"}
			}
			return base.Fn(cfg)
		},
	}
	opts := Options{TrainingSamples: 40, SecondStage: 64, Seed: 3, Model: fastModelConfig(3)}
	res, err := runStrategy(m, opts, "ml")
	if err != nil {
		t.Fatal(err)
	}
	if res.InvalidTrain == 0 {
		t.Error("no invalid training draws recorded")
	}
	if res.Attempts <= len(res.Samples) {
		t.Error("attempts not above valid samples")
	}
	if !res.Found {
		t.Fatal("tuner found nothing despite valid region")
	}
	if res.Best.Value("x") > 8 {
		t.Errorf("returned invalid-region config %v", res.Best)
	}
	if res.InvalidSecond == 0 {
		t.Error("second stage met no invalid configs despite extrapolation into the invalid half")
	}
}

func TestTuneAllSecondStageInvalid(t *testing.T) {
	// A measurer whose fast-looking region is entirely invalid: the model
	// is trained only on slow valid configs, predicts the invalid region
	// as fast, and stage 2 comes up empty (paper §7) — Found == false.
	space := tuning.NewSpace("trap", tuning.Pow2Param("x", 1, 128))
	m := &FuncMeasurer{
		TuningSpace: space,
		Fn: func(cfg tuning.Config) (float64, error) {
			x := cfg.Value("x")
			if x >= 16 {
				return 0, &devsim.StaticError{Device: "synthetic", Reason: "trap"}
			}
			// Steeply decreasing toward the trap boundary.
			return 100 / float64(x), nil
		},
	}
	opts := Options{TrainingSamples: 4, SecondStage: 2, Seed: 5, MaxAttempts: 8, Model: fastModelConfig(5)}
	res, err := runStrategy(m, opts, "ml")
	if err != nil {
		t.Fatal(err)
	}
	if res.Found && res.InvalidSecond == 0 {
		t.Log("tuner escaped the trap; acceptable but unexpected", res.Best)
	}
}

func TestGatherDeterministic(t *testing.T) {
	_, m := quadSpace()
	opts := Options{TrainingSamples: 30, SecondStage: 5, Seed: 11, Model: fastModelConfig(11)}
	r1, err := runStrategy(m, opts, "ml")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runStrategy(m, opts, "ml")
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Best.Equal(r2.Best) || r1.BestSeconds != r2.BestSeconds {
		t.Errorf("tuning not deterministic: %v/%v vs %v/%v", r1.Best, r1.BestSeconds, r2.Best, r2.BestSeconds)
	}
}

func TestTrainModelLogTransformAblation(t *testing.T) {
	// The log transform must materially reduce *relative* error on a
	// landscape spanning decades (paper §5.2's rationale).
	space, m := quadSpace()
	wide := &FuncMeasurer{
		TuningSpace: space,
		Fn: func(cfg tuning.Config) (float64, error) {
			t, _ := m.Fn(cfg)
			return math.Pow(10, t/3), nil // ~5 decades
		},
	}
	rng := rand.New(rand.NewSource(17))
	var samples []Sample
	for _, cfg := range space.Sample(rng, 80) {
		secs, _ := wide.Measure(context.Background(), cfg)
		samples = append(samples, Sample{Config: cfg, Seconds: secs})
	}
	var evalCfgs []tuning.Config
	var actual []float64
	for _, cfg := range space.Sample(rng, 40) {
		secs, _ := wide.Measure(context.Background(), cfg)
		evalCfgs = append(evalCfgs, cfg)
		actual = append(actual, secs)
	}
	relErr := func(logT bool) float64 {
		mc := fastModelConfig(17)
		mc.LogTransform = logT
		model, err := TrainModel(space, samples, nil, mc)
		if err != nil {
			t.Fatal(err)
		}
		s := model.NewScratch()
		var sum float64
		for i, cfg := range evalCfgs {
			sum += math.Abs(model.Predict(cfg, s)-actual[i]) / actual[i]
		}
		return sum / float64(len(evalCfgs))
	}
	withLog, without := relErr(true), relErr(false)
	if withLog >= without {
		t.Errorf("log transform did not help: with=%v without=%v", withLog, without)
	}
}

func TestTrainModelValidation(t *testing.T) {
	space, _ := quadSpace()
	if _, err := TrainModel(space, nil, nil, fastModelConfig(1)); err == nil {
		t.Error("empty samples accepted")
	}
	bad := []Sample{{Config: space.At(0), Seconds: -1}}
	if _, err := TrainModel(space, bad, nil, fastModelConfig(1)); err == nil {
		t.Error("negative time accepted")
	}
}

func TestModelTopM(t *testing.T) {
	space, m := quadSpace()
	rng := rand.New(rand.NewSource(23))
	var samples []Sample
	for _, cfg := range space.Sample(rng, 100) {
		secs, _ := m.Measure(context.Background(), cfg)
		samples = append(samples, Sample{Config: cfg, Seconds: secs})
	}
	model, err := TrainModel(space, samples, nil, fastModelConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	top := model.TopM(10)
	if len(top) != 10 {
		t.Fatalf("TopM returned %d", len(top))
	}
	if !sort.SliceIsSorted(top, func(i, j int) bool { return top[i].Seconds < top[j].Seconds }) {
		t.Error("TopM not sorted ascending")
	}
	// TopM must agree with a brute-force sweep.
	scratch := model.NewScratch()
	best := math.Inf(1)
	for idx := int64(0); idx < space.Size(); idx++ {
		if p := model.Predict(space.At(idx), scratch); p < best {
			best = p
		}
	}
	if top[0].Seconds != best {
		t.Errorf("TopM[0] = %v, brute force min = %v", top[0].Seconds, best)
	}
	// M larger than the space degrades to the whole space.
	if got := model.TopM(int(space.Size()) + 50); int64(len(got)) != space.Size() {
		t.Errorf("oversized M returned %d", len(got))
	}
	if model.TopM(0) != nil {
		t.Error("TopM(0) not empty")
	}
}

func TestInvalidPenaltyExtension(t *testing.T) {
	// With InvalidPenalty the model learns to avoid the invalid trap
	// region that defeats the paper's ignore-invalids approach.
	space := tuning.NewSpace("trap2",
		tuning.Pow2Param("x", 1, 128),
		tuning.Pow2Param("y", 1, 128),
	)
	measure := func(cfg tuning.Config) (float64, error) {
		x := cfg.Value("x")
		if x >= 32 {
			return 0, &devsim.StaticError{Device: "synthetic", Reason: "trap"}
		}
		return 100/float64(x) + math.Abs(math.Log2(float64(cfg.Value("y")))-3), nil
	}
	rng := rand.New(rand.NewSource(29))
	var samples []Sample
	var invalid []tuning.Config
	for _, cfg := range space.Sample(rng, 64) {
		secs, err := measure(cfg)
		if err != nil {
			invalid = append(invalid, cfg)
			continue
		}
		samples = append(samples, Sample{Config: cfg, Seconds: secs})
	}
	if len(invalid) == 0 {
		t.Fatal("sample contains no invalid configs")
	}
	rank := func(penalty float64) int {
		mc := fastModelConfig(29)
		mc.InvalidPenalty = penalty
		model, err := TrainModel(space, samples, invalid, mc)
		if err != nil {
			t.Fatal(err)
		}
		invalidInTop := 0
		for _, p := range model.TopM(10) {
			if space.At(p.Index).Value("x") >= 32 {
				invalidInTop++
			}
		}
		return invalidInTop
	}
	ignored, penalized := rank(0), rank(3)
	if penalized > ignored {
		t.Errorf("invalid penalty increased invalid predictions: %d -> %d", ignored, penalized)
	}
	if penalized > 3 {
		t.Errorf("with penalty, %d of top 10 still invalid", penalized)
	}
}

func TestRandomSearch(t *testing.T) {
	_, m := quadSpace()
	res, err := runStrategy(m, Options{Budget: 100, Seed: 7}, "random")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Measured != 100 {
		t.Fatalf("random search: %+v", res)
	}
	if res.BestSeconds > 1.5 {
		t.Errorf("100 random draws found only %v", res.BestSeconds)
	}
	if _, err := runStrategy(m, Options{Budget: 0, Seed: 1}, "random"); err == nil {
		t.Error("zero draws accepted")
	}
}

func TestExhaustive(t *testing.T) {
	space, m := quadSpace()
	res, err := runStrategy(m, Options{}, "exhaustive")
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Measured) != space.Size() {
		t.Fatalf("measured %d of %d", res.Measured, space.Size())
	}
	if res.BestSeconds != 0.5 {
		t.Errorf("exhaustive best = %v, want 0.5", res.BestSeconds)
	}
	if res.Best.Value("x") != 8 || res.Best.Value("y") != 8 || res.Best.Bool("z") {
		t.Errorf("exhaustive best config = %v", res.Best)
	}
}

func TestSimMeasurerAgainstDevice(t *testing.T) {
	b := bench.MustLookup("convolution")
	dev := devsim.MustLookup(devsim.NvidiaK40)
	m, err := NewSimMeasurer(b, dev, bench.Size{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Space() != b.Space() {
		t.Error("Space mismatch")
	}
	cfg, _ := b.Space().FromMap(map[string]int{
		"wg_x": 16, "wg_y": 16, "ppt_x": 1, "ppt_y": 1,
		"use_image": 0, "use_local": 0, "pad": 1, "interleaved": 1, "unroll": 0,
	})
	t1, err := m.Measure(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m.Measure(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if t1 == t2 {
		t.Error("repeated measurement returned identical noise")
	}
	tt, err := m.TrueTime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1-tt)/tt > 0.3 {
		t.Errorf("measurement %v too far from true time %v", t1, tt)
	}
	if cs := m.CompileSeconds(cfg); cs <= 0 {
		t.Errorf("compile seconds = %v", cs)
	}
}

func TestRuntimeMeasurerVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime measurer executes kernels functionally; skipped in -short")
	}
	b := bench.MustLookup("convolution")
	dev, _ := opencl.DeviceByName(devsim.IntelI7)
	m, err := NewRuntimeMeasurer(b, dev, b.TestSize(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := b.Space().FromMap(map[string]int{
		"wg_x": 8, "wg_y": 8, "ppt_x": 1, "ppt_y": 1,
		"use_image": 1, "use_local": 1, "pad": 0, "interleaved": 0, "unroll": 1,
	})
	secs, err := m.Measure(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Errorf("runtime measurement %v", secs)
	}
	// Invalid geometry surfaces as invalid-config.
	bad, _ := b.Space().FromMap(map[string]int{
		"wg_x": 128, "wg_y": 128, "ppt_x": 128, "ppt_y": 128,
		"use_image": 0, "use_local": 0, "pad": 0, "interleaved": 0, "unroll": 0,
	})
	if _, err := m.Measure(context.Background(), bad); err == nil || !devsim.IsInvalid(err) {
		t.Errorf("invalid geometry not reported: %v", err)
	}
}

func TestTuneOnSimulatedDeviceSmall(t *testing.T) {
	// End-to-end: tune convolution on the K40 at a reduced size with a
	// small budget; the result must be valid and no worse than 4x the
	// best training sample.
	b := bench.MustLookup("convolution")
	dev := devsim.MustLookup(devsim.NvidiaK40)
	m, err := NewSimMeasurer(b, dev, bench.Size{W: 512, H: 512}, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{TrainingSamples: 400, SecondStage: 80, Seed: 9, Model: fastModelConfig(9)}
	res, err := runStrategy(m, opts, "ml")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("tuner found nothing (invalid second stage: %d)", res.InvalidSecond)
	}
	bestTrain := math.Inf(1)
	for _, s := range res.Samples {
		if s.Seconds < bestTrain {
			bestTrain = s.Seconds
		}
	}
	if res.BestSeconds > bestTrain*1.05 {
		t.Errorf("second stage (%v) worse than best training sample (%v)", res.BestSeconds, bestTrain)
	}
	if res.Cost.GatherSeconds <= 0 || res.Cost.TrainSeconds <= 0 {
		t.Errorf("cost report incomplete: %+v", res.Cost)
	}
	// Data gathering must dominate training cost (paper §6).
	if res.Cost.GatherSeconds < res.Cost.TrainSeconds {
		t.Logf("note: gather %vs < train %vs (real wall-clock vs simulated)", res.Cost.GatherSeconds, res.Cost.TrainSeconds)
	}
}

func TestHillClimbFindsLocalOptimum(t *testing.T) {
	_, m := quadSpace()
	res, err := runStrategy(m, Options{Budget: 120, Restarts: 3, Seed: 11}, "hillclimb")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("hill climbing found nothing")
	}
	// The quad bowl is unimodal per parameter: steepest descent from any
	// start reaches the optimum 0.5 (or the z=1 copy at 0.75).
	if res.BestSeconds > 0.76 {
		t.Errorf("hill climbing stuck at %v (%v)", res.BestSeconds, res.Best)
	}
	if res.Measured+res.Invalid > 120 {
		t.Errorf("budget exceeded: %d measured + %d invalid", res.Measured, res.Invalid)
	}
}

func TestHillClimbValidation(t *testing.T) {
	_, m := quadSpace()
	if _, err := runStrategy(m, Options{Budget: 0, Restarts: 1, Seed: 1}, "hillclimb"); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestHillClimbHandlesInvalid(t *testing.T) {
	space, base := quadSpace()
	m := &FuncMeasurer{
		TuningSpace: space,
		Fn: func(cfg tuning.Config) (float64, error) {
			if cfg.Value("x") > 16 {
				return 0, &devsim.StaticError{Device: "synthetic", Reason: "wall"}
			}
			return base.Fn(cfg)
		},
	}
	res, err := runStrategy(m, Options{Budget: 100, Restarts: 4, Seed: 7}, "hillclimb")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("hill climbing found nothing in the valid half")
	}
	if res.Best.Value("x") > 16 {
		t.Errorf("returned invalid config %v", res.Best)
	}
	if res.Invalid == 0 {
		t.Log("note: no invalid configs encountered (possible but unlikely)")
	}
}

func TestNeighbours(t *testing.T) {
	space, _ := quadSpace()
	corner := space.MustMake(1, 1, 0) // all parameters at their minimum
	n := neighbours(corner)
	if len(n) != 3 { // one up-move per parameter
		t.Fatalf("corner has %d neighbours, want 3", len(n))
	}
	mid := space.MustMake(8, 8, 0)
	if got := len(neighbours(mid)); got != 5 { // 2+2+1
		t.Fatalf("interior config has %d neighbours, want 5", got)
	}
}

func TestSuggestM(t *testing.T) {
	space, m := quadSpace()
	rng := rand.New(rand.NewSource(41))
	var train, val []Sample
	for i, cfg := range space.Sample(rng, 100) {
		secs, _ := m.Measure(context.Background(), cfg)
		if i < 70 {
			train = append(train, Sample{Config: cfg, Seconds: secs})
		} else {
			val = append(val, Sample{Config: cfg, Seconds: secs})
		}
	}
	model, err := TrainModel(space, train, nil, fastModelConfig(41))
	if err != nil {
		t.Fatal(err)
	}
	m50, err := SuggestM(model, val, 0.5, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	m95, err := SuggestM(model, val, 0.95, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m50 < 1 || int64(m95) > space.Size() {
		t.Fatalf("suggested M out of range: %d, %d", m50, m95)
	}
	if m95 < m50 {
		t.Errorf("higher confidence suggested smaller M: M(0.5)=%d M(0.95)=%d", m50, m95)
	}
	// The suggestion must actually work: across seeds, the true optimum
	// (8,8,0) should rank within the suggested M(0.95) most of the time.
	top := model.TopM(m95)
	found := false
	for _, p := range top {
		cfg := space.At(p.Index)
		if cfg.Value("x") == 8 && cfg.Value("y") == 8 && !cfg.Bool("z") {
			found = true
			break
		}
	}
	if !found {
		t.Logf("note: optimum outside suggested M=%d for this seed (allowed at 95%% confidence)", m95)
	}
}

func TestSuggestMValidation(t *testing.T) {
	space, m := quadSpace()
	rng := rand.New(rand.NewSource(43))
	var train []Sample
	for _, cfg := range space.Sample(rng, 40) {
		secs, _ := m.Measure(context.Background(), cfg)
		train = append(train, Sample{Config: cfg, Seconds: secs})
	}
	model, err := TrainModel(space, train, nil, fastModelConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SuggestM(nil, train, 0.9, 10, 1); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := SuggestM(model, train[:3], 0.9, 10, 1); err == nil {
		t.Error("tiny validation set accepted")
	}
	if _, err := SuggestM(model, train, 1.5, 10, 1); err == nil {
		t.Error("confidence > 1 accepted")
	}
}

// TestMeasuredFractionCountsDistinctExecutions pins the ml strategy's
// MeasuredFraction accounting: stage-2 candidates that overlap the
// stage-1 training set are served from the session's memo cache and must
// not be counted as executed twice. Distinct executions are observable
// directly — the measurer is invoked exactly once per distinct
// configuration — so the fraction must equal invocations / |space|.
func TestMeasuredFractionCountsDistinctExecutions(t *testing.T) {
	space := tuning.NewSpace("overlap",
		tuning.Pow2Param("x", 1, 8),
		tuning.Pow2Param("y", 1, 8),
		tuning.BoolParam("z"),
		tuning.BoolParam("w"),
	) // 64 configurations
	var invocations atomic.Int64
	m := &FuncMeasurer{
		TuningSpace: space,
		Fn: func(cfg tuning.Config) (float64, error) {
			invocations.Add(1)
			lx := math.Log2(float64(cfg.Value("x")))
			ly := math.Log2(float64(cfg.Value("y")))
			return 0.5 + (lx-2)*(lx-2) + (ly-2)*(ly-2), nil
		},
	}
	opts := Options{TrainingSamples: 40, SecondStage: 20, Seed: 9, Model: fastModelConfig(9)}
	s, err := NewSession(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), "ml")
	if err != nil {
		t.Fatal(err)
	}
	// The regression's precondition: the second stage really did overlap
	// stage 1 (otherwise this test pins nothing).
	if invocations.Load() >= int64(res.Attempts+len(res.Predicted)) {
		t.Fatalf("no stage overlap: %d invocations for %d attempts + %d candidates",
			invocations.Load(), res.Attempts, len(res.Predicted))
	}
	want := float64(invocations.Load()) / float64(space.Size())
	if res.MeasuredFraction != want {
		t.Errorf("MeasuredFraction = %v, want %v (= %d distinct executions / %d configs)",
			res.MeasuredFraction, want, invocations.Load(), space.Size())
	}
	// The old formula — (attempts + M) / size — double-counts the overlap.
	old := float64(res.Attempts+len(res.Predicted)) / float64(space.Size())
	if res.MeasuredFraction >= old {
		t.Errorf("MeasuredFraction %v not below the double-counting formula %v", res.MeasuredFraction, old)
	}

	// On a reused session the memo cache replays stage 1 too: the second
	// run's fraction — and its Measured/Invalid distinct counts — must
	// still equal its own fresh executions.
	before := invocations.Load()
	res2, err := s.Run(context.Background(), "ml")
	if err != nil {
		t.Fatal(err)
	}
	fresh2 := invocations.Load() - before
	want2 := float64(fresh2) / float64(space.Size())
	if res2.MeasuredFraction != want2 {
		t.Errorf("reused session: MeasuredFraction = %v, want %v", res2.MeasuredFraction, want2)
	}
	if int64(res2.Measured+res2.Invalid) != fresh2 {
		t.Errorf("reused session: Measured %d + Invalid %d != %d fresh executions",
			res2.Measured, res2.Invalid, fresh2)
	}
}

// TestRuntimeMeasurerConcurrentGather is the regression test for the
// Measurer contract: Session.gather calls Measure from GOMAXPROCS
// workers, and RuntimeMeasurer shares one opencl.Context and bench.Data
// across runs, so Measure must serialise internally. Run under
// `go test -race` this fails if the serialisation is ever removed while
// the functional runtime (or a future measurer cache) mutates shared
// state.
func TestRuntimeMeasurerConcurrentGather(t *testing.T) {
	b := bench.MustLookup("convolution")
	dev, err := opencl.DeviceByName(devsim.IntelI7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRuntimeMeasurer(b, dev, b.TestSize(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	maps := []map[string]int{
		{"wg_x": 8, "wg_y": 8, "ppt_x": 1, "ppt_y": 1, "use_image": 1, "use_local": 1, "pad": 0, "interleaved": 0, "unroll": 1},
		{"wg_x": 4, "wg_y": 4, "ppt_x": 2, "ppt_y": 1, "use_image": 0, "use_local": 0, "pad": 1, "interleaved": 1, "unroll": 0},
		{"wg_x": 8, "wg_y": 4, "ppt_x": 1, "ppt_y": 2, "use_image": 0, "use_local": 1, "pad": 1, "interleaved": 0, "unroll": 1},
		{"wg_x": 4, "wg_y": 8, "ppt_x": 2, "ppt_y": 2, "use_image": 1, "use_local": 0, "pad": 0, "interleaved": 1, "unroll": 0},
	}
	idxs := make([]int64, len(maps))
	for i, values := range maps {
		cfg, err := b.Space().FromMap(values)
		if err != nil {
			t.Fatal(err)
		}
		idxs[i] = cfg.Index()
	}
	// Sequential reference first, then a concurrent gather on a fresh
	// measurer: the runtime is deterministic, so serialised concurrent
	// measurements must reproduce the sequential times exactly.
	want := make([]float64, len(idxs))
	for i, idx := range idxs {
		secs, err := m.Measure(context.Background(), b.Space().At(idx))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = secs
	}
	m2, err := NewRuntimeMeasurer(b, dev, b.TestSize(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(m2, Options{TrainingSamples: 1, SecondStage: 1, Seed: 1}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	outs, _, _, err := s.gather(context.Background(), "race", idxs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.mt.err != nil {
			t.Fatalf("config %d: %v", i, o.mt.err)
		}
		if o.mt.secs != want[i] {
			t.Errorf("config %d: concurrent %v, sequential %v", i, o.mt.secs, want[i])
		}
	}
}
