package ann

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(rng, []int{3}, Linear); err == nil {
		t.Error("single layer accepted")
	}
	if _, err := New(rng, []int{3, 2}, Sigmoid, Linear); err == nil {
		t.Error("wrong activation count accepted")
	}
	if _, err := New(rng, []int{3, 0, 1}, Sigmoid, Linear); err == nil {
		t.Error("zero-width layer accepted")
	}
	n, err := New(rng, []int{3, 5, 1}, Sigmoid, Linear)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.weights) != 2 || len(n.weights[0]) != (3+1)*5 || len(n.weights[1]) != (5+1)*1 {
		t.Errorf("weight layout %d layers, want (3+1)*5 and (5+1)*1 weights", len(n.weights))
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		a        Activation
		x, want  float64
		name     string
		wantName string
	}{
		{Sigmoid, 0, 0.5, "sigmoid@0", "sigmoid"},
		{Tanh, 0, 0, "tanh@0", "tanh"},
		{ReLU, -2, 0, "relu@-2", "relu"},
		{ReLU, 3, 3, "relu@3", "relu"},
		{Linear, 1.5, 1.5, "linear", "linear"},
	}
	for _, c := range cases {
		if got := c.a.apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: apply = %g, want %g", c.name, got, c.want)
		}
		if c.a.String() != c.wantName {
			t.Errorf("String() = %q, want %q", c.a.String(), c.wantName)
		}
	}
}

func TestActivationDerivatives(t *testing.T) {
	// derivFromValue must match numerical differentiation of apply.
	for _, a := range []Activation{Sigmoid, Tanh, Linear} {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			h := 1e-6
			num := (a.apply(x+h) - a.apply(x-h)) / (2 * h)
			got := a.derivFromValue(a.apply(x))
			if math.Abs(num-got) > 1e-5 {
				t.Errorf("%v deriv at %g = %g, numeric %g", a, x, got, num)
			}
		}
	}
}

// TestGradientCheck verifies the training step's gradient against
// numerical gradients on a small random network — the canonical
// correctness test for any neural network implementation. It reads the
// gradient off one real Train step: one sample, learning rate 1, no
// momentum and no decay, so each weight moves by exactly −gradient.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := MustNew(rng, []int{3, 4, 1}, Sigmoid, Linear)
	x := []float64{0.2, -0.7, 0.5}
	target := 0.3

	before := n.Clone()
	cfg := TrainConfig{Epochs: 1, LearningRate: 1, LRDecay: 1, Momentum: 0, BatchSize: 1}
	if _, err := n.Train(rng, [][]float64{x}, []float64{target}, cfg); err != nil {
		t.Fatal(err)
	}

	s := before.NewScratch()
	const h = 1e-6
	for l := range before.weights {
		for i := range before.weights[l] {
			grad := before.weights[l][i] - n.weights[l][i]
			orig := before.weights[l][i]
			before.weights[l][i] = orig + h
			up := 0.5 * sq(before.Predict(x, s)-target)
			before.weights[l][i] = orig - h
			down := 0.5 * sq(before.Predict(x, s)-target)
			before.weights[l][i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-grad) > 1e-5 {
				t.Fatalf("gradient mismatch layer %d weight %d: analytic %g numeric %g",
					l, i, grad, num)
			}
		}
	}
}

func sq(x float64) float64 { return x * x }

func TestTrainLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, 0.3*x[0]-0.6*x[1]+0.2)
	}
	n := MustNew(rng, []int{2, 8, 1}, Sigmoid, Linear)
	res, err := n.Train(rng, xs, ys, TrainConfig{Epochs: 300, LearningRate: 0.3, Momentum: 0.9, BatchSize: 4, LRDecay: 0.995})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMSE > 1e-3 {
		t.Errorf("linear function not learned: MSE %g after %d epochs", res.FinalMSE, res.Epochs)
	}
}

func TestTrainLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float64{0, 1, 1, 0}
	n := MustNew(rng, []int{2, 6, 1}, Tanh, Linear)
	if _, err := n.Train(rng, xs, ys, TrainConfig{Epochs: 3000, LearningRate: 0.1, Momentum: 0.9, BatchSize: 1}); err != nil {
		t.Fatal(err)
	}
	s := n.NewScratch()
	for i, x := range xs {
		if math.Abs(n.Predict(x, s)-ys[i]) > 0.25 {
			t.Errorf("XOR(%v) = %g, want %g", x, n.Predict(x, s), ys[i])
		}
	}
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := MustNew(rng, []int{2, 3, 1}, Sigmoid, Linear)
	if _, err := n.Train(rng, [][]float64{{1, 2}}, []float64{1, 2}, TrainConfig{}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := n.Train(rng, nil, nil, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := n.Train(rng, [][]float64{{1}}, []float64{1}, TrainConfig{}); err == nil {
		t.Error("wrong feature dimension accepted")
	}
}

func TestTrainDeterministic(t *testing.T) {
	build := func() float64 {
		rng := rand.New(rand.NewSource(11))
		var xs [][]float64
		var ys []float64
		for i := 0; i < 50; i++ {
			x := []float64{rng.Float64()}
			xs = append(xs, x)
			ys = append(ys, x[0]*x[0])
		}
		n := MustNew(rng, []int{1, 5, 1}, Sigmoid, Linear)
		if _, err := n.Train(rng, xs, ys, TrainConfig{Epochs: 50, LearningRate: 0.2, BatchSize: 4}); err != nil {
			t.Fatal(err)
		}
		return n.Predict([]float64{0.5}, n.NewScratch())
	}
	if a, b := build(), build(); a != b {
		t.Errorf("training not deterministic: %g vs %g", a, b)
	}
}

// TestTrainHugeBatchSize checks that a batch size far beyond the data,
// as a /v1/train request body may carry, trains as one batch of all the
// samples instead of sizing buffers by the request.
func TestTrainHugeBatchSize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([][]float64, 10)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = xs[i][0] - xs[i][1]
	}
	train := func(batch int) uint64 {
		n := MustNew(rand.New(rand.NewSource(3)), []int{2, 6, 1}, Sigmoid, Linear)
		if _, err := n.Train(rand.New(rand.NewSource(4)), xs, ys, TrainConfig{Epochs: 20, BatchSize: batch}); err != nil {
			t.Fatalf("BatchSize %d: %v", batch, err)
		}
		return n.Fingerprint()
	}
	want := train(len(xs))
	for _, batch := range []int{1 << 40, math.MaxInt} {
		if got := train(batch); got != want {
			t.Errorf("BatchSize %d: fingerprint %x, want %x (BatchSize = len(xs))", batch, got, want)
		}
	}
}

func TestEarlyStopping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := [][]float64{{0}, {1}}
	ys := []float64{0, 1}
	n := MustNew(rng, []int{1, 2, 1}, Sigmoid, Linear)
	res, err := n.Train(rng, xs, ys, TrainConfig{
		Epochs: 10000, LearningRate: 0.5, BatchSize: 1, Patience: 10, Tolerance: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs >= 10000 {
		t.Errorf("early stopping never triggered (%d epochs)", res.Epochs)
	}
}

func TestClone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := MustNew(rng, []int{2, 3, 1}, Sigmoid, Linear)
	c := n.Clone()
	x := []float64{0.1, 0.9}
	if n.Predict(x, n.NewScratch()) != c.Predict(x, c.NewScratch()) {
		t.Fatal("clone predicts differently")
	}
	c.weights[0][0] += 1
	if n.Predict(x, n.NewScratch()) == c.Predict(x, c.NewScratch()) {
		t.Error("mutating clone affected original")
	}
}

func TestTargetScaler(t *testing.T) {
	ys := []float64{1, 2, 3, 4, 5}
	s, err := FitTargetScaler(ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-3) > 1e-12 {
		t.Errorf("mean = %g", s.Mean)
	}
	for _, y := range ys {
		if got := s.Invert(s.Apply(y)); math.Abs(got-y) > 1e-12 {
			t.Errorf("roundtrip %g -> %g", y, got)
		}
	}
	scaled := s.ApplyAll(ys)
	var sum float64
	for _, v := range scaled {
		sum += v
	}
	if math.Abs(sum) > 1e-9 {
		t.Errorf("standardized mean = %g, want 0", sum/5)
	}
	if _, err := FitTargetScaler(nil); err == nil {
		t.Error("empty targets accepted")
	}
	c, _ := FitTargetScaler([]float64{7, 7, 7})
	if c.Std != 1 {
		t.Errorf("constant targets std = %g, want fallback 1", c.Std)
	}
}

func TestEnsembleTrainAndPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 120; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, x[0]+x[1])
	}
	cfg := DefaultEnsembleConfig(42)
	cfg.K = 5
	cfg.Hidden = 6
	cfg.Train = TrainConfig{Epochs: 150, LearningRate: 0.3, Momentum: 0.9, BatchSize: 4}
	e, err := TrainEnsemble(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != 5 {
		t.Fatalf("ensemble size = %d", e.Size())
	}
	ps := e.NewScratch()
	if got := e.Predict([]float64{0.5, 0.5}, ps); math.Abs(got-1) > 0.15 {
		t.Errorf("ensemble prediction %g, want ~1", got)
	}
}

func TestEnsembleMeanOfMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	xs := [][]float64{{0}, {0.5}, {1}, {0.25}, {0.75}, {0.1}}
	ys := []float64{0, 0.5, 1, 0.25, 0.75, 0.1}
	cfg := DefaultEnsembleConfig(1)
	cfg.K = 3
	cfg.Hidden = 3
	cfg.Train = TrainConfig{Epochs: 20, LearningRate: 0.2, BatchSize: 1}
	e, err := TrainEnsemble(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{rng.Float64()}
	var sum float64
	for _, m := range e.Members() {
		sum += m.Predict(x, m.NewScratch())
	}
	if got := e.Predict(x, e.NewScratch()); math.Abs(got-sum/3) > 1e-12 {
		t.Errorf("ensemble prediction %g is not member mean %g", got, sum/3)
	}
}

func TestEnsembleValidation(t *testing.T) {
	if _, err := TrainEnsemble(nil, nil, DefaultEnsembleConfig(1)); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := TrainEnsemble([][]float64{{1}}, []float64{1, 2}, DefaultEnsembleConfig(1)); err == nil {
		t.Error("mismatched lengths accepted")
	}
	// K larger than the sample count must degrade gracefully.
	cfg := DefaultEnsembleConfig(1)
	cfg.K = 50
	cfg.Train = TrainConfig{Epochs: 5, LearningRate: 0.1, BatchSize: 1}
	e, err := TrainEnsemble([][]float64{{0}, {1}, {0.5}}, []float64{0, 1, 0.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != 3 {
		t.Errorf("K clamped to %d, want 3", e.Size())
	}
}

func TestEnsembleDeterministicAcrossParallelism(t *testing.T) {
	// Member training must not depend on scheduling: parallel and serial
	// construction give identical predictions.
	var xs [][]float64
	var ys []float64
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 60; i++ {
		x := []float64{rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, math.Sin(3*x[0]))
	}
	build := func(parallel bool) float64 {
		cfg := DefaultEnsembleConfig(77)
		cfg.K = 4
		cfg.Hidden = 5
		cfg.Parallel = parallel
		cfg.Train = TrainConfig{Epochs: 30, LearningRate: 0.2, BatchSize: 2}
		e, err := TrainEnsemble(xs, ys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e.Predict([]float64{0.3}, e.NewScratch())
	}
	if a, b := build(true), build(false); a != b {
		t.Errorf("parallel %g != serial %g", a, b)
	}
}

// Property: bagging variance across seeds should not exceed single-network
// variance (ensembling stabilizes predictions).
func TestBaggingReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 150; i++ {
		x := []float64{rng.Float64() * 2}
		xs = append(xs, x)
		ys = append(ys, math.Sin(2*x[0])+0.1*rng.NormFloat64())
	}
	variance := func(k int) float64 {
		var preds []float64
		for seed := int64(0); seed < 6; seed++ {
			cfg := DefaultEnsembleConfig(seed)
			cfg.K = k
			cfg.Hidden = 8
			cfg.Train = TrainConfig{Epochs: 60, LearningRate: 0.25, Momentum: 0.9, BatchSize: 4}
			e, err := TrainEnsemble(xs, ys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, e.Predict([]float64{1.1}, e.NewScratch()))
		}
		var mean, v float64
		for _, p := range preds {
			mean += p
		}
		mean /= float64(len(preds))
		for _, p := range preds {
			v += (p - mean) * (p - mean)
		}
		return v / float64(len(preds))
	}
	if vBag, vSingle := variance(7), variance(1); vBag > vSingle*1.5 {
		t.Errorf("bagging variance %g much larger than single-network variance %g", vBag, vSingle)
	}
}
