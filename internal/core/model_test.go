package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/ann"
	"repro/internal/tuning"
)

// tiedModel hand-builds a model whose predictions depend on exactly one
// tuning parameter, so every configuration sharing that parameter's value
// gets a bitwise-identical predicted time. With 4 values of "y" over a
// 64-point space that forces tie groups of 16 — large enough to straddle
// any worker partition boundary.
func tiedModel(t *testing.T) (*Model, *tuning.Space) {
	t.Helper()
	space := tuning.NewSpace("ties",
		tuning.Pow2Param("x", 1, 8), // 4 values
		tuning.Pow2Param("y", 1, 8), // 4 values (feature 1 drives S)
		tuning.Pow2Param("w", 1, 2), // 2 values
		tuning.BoolParam("z"),       // 2 values
	)
	enc := tuning.NewEncoder(space)
	// One linear neuron reading only feature 1 ("y"): prediction is a
	// function of y alone.
	weights := make([]float64, enc.Dim()+1)
	weights[1] = 2
	weights[enc.Dim()] = 1 // bias
	ensemble, err := ann.EnsembleFromState(ann.EnsembleState{Nets: []ann.NetworkState{{
		Sizes:   []int{enc.Dim(), 1},
		Acts:    []string{"linear"},
		Weights: [][]float64{weights},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{space: space, schema: tuning.ParamSchema(space), ensemble: ensemble,
		scaler: ann.TargetScaler{Mean: 1, Std: 0.5}, logT: false}
	return m, space
}

// bruteTopM is the specification: predict everything, order by
// (Seconds, Index), take M.
func bruteTopM(m *Model, M int) []Predicted {
	space := m.Space()
	all := make([]Predicted, space.Size())
	scratch := m.NewScratch()
	for idx := int64(0); idx < space.Size(); idx++ {
		all[idx] = Predicted{Index: idx, Seconds: m.Predict(space.At(idx), scratch)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].less(all[j]) })
	return all[:M]
}

func TestTopMTieBreakWorkerInvariant(t *testing.T) {
	m, space := tiedModel(t)
	// Sanity: the construction really does force ties — 16 configurations
	// per distinct prediction.
	scratch := m.NewScratch()
	distinct := map[float64]int{}
	for idx := int64(0); idx < space.Size(); idx++ {
		distinct[m.Predict(space.At(idx), scratch)]++
	}
	if len(distinct) != 4 {
		t.Fatalf("tie construction broken: %d distinct predictions over %d configs", len(distinct), space.Size())
	}

	const M = 10
	want := bruteTopM(m, M)
	for i := 1; i < M; i++ {
		if !want[i-1].less(want[i]) {
			t.Fatalf("specification order not total at %d: %+v %+v", i, want[i-1], want[i])
		}
	}
	for _, workers := range []int{1, 2, 3, 4, 5, 7, 8, 64, 100} {
		got := m.topM(M, workers)
		if len(got) != M {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), M)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d: result %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestTopMTieBreakGOMAXPROCSInvariant(t *testing.T) {
	// The public TopM partitions by GOMAXPROCS; with forced ties the
	// stage-2 candidate set must be identical at 1 and 4 procs.
	m, _ := tiedModel(t)
	const M = 12
	run := func(procs int) []Predicted {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		return m.TopM(M)
	}
	one, four := run(1), run(4)
	if len(one) != M || len(four) != M {
		t.Fatalf("lengths %d/%d, want %d", len(one), len(four), M)
	}
	for i := range one {
		if one[i] != four[i] {
			t.Errorf("result %d differs across GOMAXPROCS: %+v vs %+v", i, one[i], four[i])
		}
	}
}

// trainedTestModel fits a small-but-real model over a 4096-point space so
// the batched sweep exercises multiple blocks, heap warmup and the
// bound-pruning path.
func trainedTestModel(t testing.TB) *Model {
	t.Helper()
	space := tuning.NewSpace("batch",
		tuning.Pow2Param("x", 1, 128),    // 8
		tuning.Pow2Param("y", 1, 128),    // 8
		tuning.NewParam("a", 1, 2, 3, 4), // 4
		tuning.Pow2Param("w", 1, 8),      // 4
		tuning.BoolParam("z"),            // 2
	)
	rng := rand.New(rand.NewSource(77))
	samples := make([]Sample, 0, 300)
	for _, cfg := range space.Sample(rng, 300) {
		lx := math.Log2(float64(cfg.Value("x")))
		ly := math.Log2(float64(cfg.Value("y")))
		secs := 0.5 + (lx-3)*(lx-3) + 0.3*(ly-2)*(ly-2) + 0.1*float64(cfg.Value("a"))
		if cfg.Bool("z") {
			secs *= 1.2
		}
		samples = append(samples, Sample{Config: cfg, Seconds: secs})
	}
	mc := DefaultModelConfig(77)
	mc.Ensemble.K = 5
	mc.Ensemble.Hidden = 12
	mc.Ensemble.Train = ann.TrainConfig{Epochs: 60, LearningRate: 0.3, Momentum: 0.9, BatchSize: 8}
	model, err := TrainModel(space, samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestPredictBatchBitIdenticalToScalar is the tentpole property test: the
// blocked batch path (PredictIndices) returns bit-for-bit what scalar
// Predict returns.
func TestPredictBatchBitIdenticalToScalar(t *testing.T) {
	m := trainedTestModel(t)
	space := m.Space()
	rng := rand.New(rand.NewSource(78))

	// A block larger than predictBlock plus a ragged tail.
	idxs := space.SampleIndices(rng, predictBlock+37)
	cfgs := make([]tuning.Config, len(idxs))
	for i, idx := range idxs {
		cfgs[i] = space.At(idx)
	}

	scalar := m.NewScratch()
	want := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = m.Predict(cfg, scalar)
	}

	byIdx := m.PredictIndices(idxs, m.NewBatchScratch(), nil)
	for i := range want {
		if byIdx[i] != want[i] {
			t.Fatalf("PredictIndices[%d] = %v, scalar %v", i, byIdx[i], want[i])
		}
	}
}

// TestTopMPrunedWorkerInvariant runs the batched, bound-pruned sweep on a
// real trained model (pruning active: heap fills, later blocks prune)
// and checks the result against the scalar brute-force specification for
// worker counts 1..8.
func TestTopMPrunedWorkerInvariant(t *testing.T) {
	m := trainedTestModel(t)
	if !m.canPrune() {
		t.Fatal("trained model unexpectedly cannot prune")
	}
	const M = 50
	want := bruteTopM(m, M)
	for workers := 1; workers <= 8; workers++ {
		got := m.topM(M, workers)
		if len(got) != M {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), M)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSuggestMDeterministicWithBatching guards the batched subsample
// scoring in SuggestM: determinism across invocations and a sane range,
// with equivalence to scalar prediction covered by the bit-identity test
// above.
func TestSuggestMDeterministicWithBatching(t *testing.T) {
	m := trainedTestModel(t)
	space := m.Space()
	rng := rand.New(rand.NewSource(79))
	var val []Sample
	scratch := m.NewScratch()
	for _, cfg := range space.Sample(rng, 16) {
		// Validation targets near the model's own predictions with a
		// deterministic wobble, so residuals are non-zero.
		pred := m.Predict(cfg, scratch)
		val = append(val, Sample{Config: cfg, Seconds: pred * (1 + 0.1*rng.Float64())})
	}
	m1, err := SuggestM(m, val, 0.9, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := SuggestM(m, val, 0.9, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatalf("SuggestM not deterministic: %d vs %d", m1, m2)
	}
	if m1 < 1 || int64(m1) > space.Size() {
		t.Fatalf("SuggestM out of range: %d", m1)
	}
}

// TestTrainModelWorkersByteIdenticalPersist is the acceptance property of
// the parallel training pipeline: training with N workers must persist a
// byte-identical model file to the sequential path, because per-member
// seeds are pre-drawn before any worker starts. Byte identity of the
// Save output is the strongest form — it covers weights, scaler and
// header alike.
func TestTrainModelWorkersByteIdenticalPersist(t *testing.T) {
	space, meas := quadSpace()
	rng := rand.New(rand.NewSource(23))
	var samples []Sample
	for _, cfg := range space.Sample(rng, 70) {
		secs, _ := meas.Measure(context.Background(), cfg)
		samples = append(samples, Sample{Config: cfg, Seconds: secs})
	}
	persisted := func(workers int) []byte {
		t.Helper()
		mc := fastModelConfig(23)
		mc.Ensemble.Train.Epochs = 80
		mc.Ensemble.Workers = workers
		model, err := TrainModel(space, samples, nil, mc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := persisted(1)
	for _, workers := range []int{2, 4, 8} {
		if got := persisted(workers); !bytes.Equal(got, want) {
			t.Errorf("model persisted with %d workers differs from sequential (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}
