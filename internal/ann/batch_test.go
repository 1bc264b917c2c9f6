package ann

import (
	"math/rand"
	"testing"
)

// randomInputs draws a sample-major block of n inputs of width dim.
func randomInputs(rng *rand.Rand, n, dim int) []float64 {
	xs := make([]float64, n*dim)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 2
	}
	return xs
}

// TestPredictBatchBitIdentical asserts the batched forward pass returns
// exactly (bit for bit) what the scalar path returns, across topologies,
// activations and block sizes — including the unrolled-by-4 main loop
// and its tail.
func TestPredictBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		sizes []int
		acts  []Activation
	}{
		{[]int{9, 30, 1}, []Activation{Sigmoid, Linear}},
		{[]int{4, 7, 5, 1}, []Activation{Sigmoid, Tanh, Linear}},
		{[]int{3, 8, 1}, []Activation{ReLU, Linear}},
		{[]int{1, 1, 1}, []Activation{Tanh, Sigmoid}},
		{[]int{6, 1}, []Activation{Linear}},
	}
	for _, tc := range cases {
		net := MustNew(rng, tc.sizes, tc.acts...)
		scratch := net.NewScratch()
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 16, 33} {
			xs := randomInputs(rng, n, tc.sizes[0])
			batch := net.NewBatchScratch(n + 3) // capacity beyond count
			got := make([]float64, n)
			net.PredictBatch(xs, n, batch, got)
			for b := 0; b < n; b++ {
				want := net.Predict(xs[b*tc.sizes[0]:(b+1)*tc.sizes[0]], scratch)
				if got[b] != want {
					t.Fatalf("sizes %v n=%d sample %d: batch %v, scalar %v", tc.sizes, n, b, got[b], want)
				}
			}
		}
	}
}

// TestEnsemblePredictBatchBitIdentical checks the ensemble mean matches
// the scalar path exactly on a trained ensemble.
func TestEnsemblePredictBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([][]float64, 80)
	ys := make([]float64, 80)
	for i := range xs {
		x := make([]float64, 5)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
		ys[i] = x[0]*x[1] - x[2] + 0.3*x[3]
	}
	cfg := DefaultEnsembleConfig(5)
	cfg.K = 4
	cfg.Hidden = 9
	cfg.Train = TrainConfig{Epochs: 40, LearningRate: 0.3, BatchSize: 4}
	e, err := TrainEnsemble(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scalar := e.NewScratch()
	const n = 21
	block := randomInputs(rng, n, 5)
	bs := e.NewBatchScratch(n)
	got := make([]float64, n)
	e.PredictBatch(block, n, bs, got)
	for b := 0; b < n; b++ {
		want := e.Predict(block[b*5:(b+1)*5], scalar)
		if got[b] != want {
			t.Fatalf("sample %d: batch %v, scalar %v", b, got[b], want)
		}
	}
}

// TestPredictBatchPanics pins the shape-validation contract.
func TestPredictBatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := MustNew(rng, []int{3, 4, 2}, Sigmoid, Linear) // two outputs
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := net.NewBatchScratch(4)
	expectPanic("multi-output", func() { net.PredictBatch(make([]float64, 12), 4, s, make([]float64, 4)) })

	one := MustNew(rng, []int{3, 4, 1}, Sigmoid, Linear)
	s1 := one.NewBatchScratch(4)
	expectPanic("count beyond capacity", func() { one.PredictBatch(make([]float64, 30), 10, s1, make([]float64, 10)) })
	expectPanic("short input", func() { one.PredictBatch(make([]float64, 5), 4, s1, make([]float64, 4)) })
	expectPanic("short dst", func() { one.PredictBatch(make([]float64, 12), 4, s1, make([]float64, 2)) })
}
