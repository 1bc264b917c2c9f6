package ann

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// engineCase is one ensemble the conformance suite runs every engine
// over. Weight scales are stretched well past the trained-init range so
// the per-layer scale selection is exercised, not just the happy path.
type engineCase struct {
	name string
	e    *Ensemble
}

func engineCases(tb testing.TB) []engineCase {
	rng := rand.New(rand.NewSource(99))
	var out []engineCase
	for _, tc := range []struct {
		name  string
		sizes []int
		scale float64
	}{
		{"small", []int{4, 8, 1}, 1},
		{"paper-shape", []int{9, 30, 1}, 6},
		{"deep", []int{3, 5, 4, 1}, 2},
		{"linear-only", []int{2, 1}, 3},
		{"tiny-weights", []int{4, 6, 1}, 1e-4},
	} {
		acts := make([]Activation, len(tc.sizes)-1)
		for i := range acts {
			acts[i] = Sigmoid
		}
		acts[len(acts)-1] = Linear
		nets := make([]*Network, 3)
		for i := range nets {
			n := MustNew(rng, tc.sizes, acts...)
			for _, w := range n.weights {
				for j := range w {
					w[j] *= tc.scale * (0.5 + rng.Float64())
				}
			}
			nets[i] = n
		}
		out = append(out, engineCase{tc.name, &Ensemble{nets: nets}})
	}

	xs, ys := synthSamples(7, 60, 4)
	cfg := DefaultEnsembleConfig(7)
	cfg.K = 3
	cfg.Hidden = 6
	cfg.Train.Epochs = 40
	trained, err := TrainEnsemble(xs, ys, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return append(out, engineCase{"trained", trained})
}

// engineInputs draws count in-domain sample-major feature rows,
// including exact domain-boundary values.
func engineInputs(rng *rand.Rand, count, dim int) []float64 {
	xs := make([]float64, count*dim)
	for i := range xs {
		switch rng.Intn(8) {
		case 0:
			xs[i] = QuantInputHi
		case 1:
			xs[i] = QuantInputLo
		case 2:
			xs[i] = 0
		default:
			xs[i] = QuantInputLo + rng.Float64()*(QuantInputHi-QuantInputLo)
		}
	}
	return xs
}

// batchEngine is one engine's batch pass over float inputs: the
// reference block pass, or QuantizeQ14 rounding of the inputs followed by
// the quantised engine's Q14 forward pass. bound is the engine's proven
// error bound, 0 for the reference.
type batchEngine struct {
	bound float64
	run   func(xs []float64, count int, dst []float64)
}

// newBatchEngine builds the named engine over e for blocks of up to
// capacity samples. Its run allocates nothing.
func newBatchEngine(tb testing.TB, name string, e *Ensemble, capacity int) batchEngine {
	tb.Helper()
	qin := make([]int16, capacity*e.nets[0].sizes[0])
	quantize := func(xs []float64) []int16 {
		for i, x := range xs {
			qin[i] = QuantizeQ14(x)
		}
		return qin[:len(xs)]
	}
	switch name {
	case EngineFloat64:
		s := e.NewBatchScratch(capacity)
		return batchEngine{0, func(xs []float64, count int, dst []float64) { e.PredictBatch(xs, count, s, dst) }}
	case EngineInt16:
		q, err := QuantizeEnsemble(e)
		if err != nil {
			tb.Fatal(err)
		}
		s := q.NewQuantScratch(capacity)
		return batchEngine{q.ErrorBound(), func(xs []float64, count int, dst []float64) {
			q.PredictBatchQ14(quantize(xs[:count*q.InputDim()]), count, s, dst)
		}}
	case EngineInt8:
		q, err := Quantize8Ensemble(e)
		if err != nil {
			tb.Fatal(err)
		}
		s := q.NewQuant8Scratch(capacity)
		return batchEngine{q.ErrorBound(), func(xs []float64, count int, dst []float64) {
			q.PredictBatchQ14(quantize(xs[:count*q.InputDim()]), count, s, dst)
		}}
	}
	tb.Fatalf("unknown engine %q", name)
	return batchEngine{}
}

// withinBound fails the test unless every got[b] lies within bound of
// the scalar reference e.Predict of sample b of xs (bit-identical for a
// zero bound).
func withinBound(t *testing.T, e *Ensemble, xs []float64, got []float64, bound float64) {
	t.Helper()
	ps := e.NewScratch()
	dim := len(xs) / len(got)
	for b := range got {
		want := e.Predict(xs[b*dim:(b+1)*dim], ps)
		if d := math.Abs(got[b] - want); d > bound || (bound == 0 && math.Float64bits(got[b]) != math.Float64bits(want)) {
			t.Fatalf("sample %d: |%g - %g| = %g exceeds bound %g", b, got[b], want, d, bound)
		}
	}
}

// TestEngineConformance is the shared suite every engine must pass (see
// CONTRIBUTING): from float inputs, including the quantised engines'
// QuantizeQ14 rounding, predictions within the engine's advertised error
// bound of the scalar reference, and the reference's own block pass
// bit-identical to it. New engines get added to EngineNames and inherit
// this.
func TestEngineConformance(t *testing.T) {
	for _, ec := range engineCases(t) {
		for _, name := range EngineNames() {
			t.Run(ec.name+"/"+name, func(t *testing.T) {
				eng := newBatchEngine(t, name, ec.e, 64)
				if eng.bound < 0 || math.IsNaN(eng.bound) || eng.bound > 1 {
					t.Fatalf("implausible error bound %g", eng.bound)
				}
				if name != EngineFloat64 && eng.bound == 0 {
					t.Fatalf("%s engine reports a zero error bound", name)
				}
				rng := rand.New(rand.NewSource(5))
				dim := ec.e.nets[0].sizes[0]
				got := make([]float64, 64)
				for round := 0; round < 20; round++ {
					count := 1 + rng.Intn(64)
					xs := engineInputs(rng, count, dim)
					eng.run(xs, count, got)
					withinBound(t, ec.e, xs, got[:count], eng.bound)
				}
			})
		}
	}
}

// TestInt16EngineBoundIsTight sanity-checks the proof is not vacuous:
// for the paper-shaped trained model the bound must be far below the
// target scaler's std (otherwise screening would never prune anything).
func TestInt16EngineBoundIsTight(t *testing.T) {
	ecs := engineCases(t)
	trained := ecs[len(ecs)-1].e
	q, err := QuantizeEnsemble(trained)
	if err != nil {
		t.Fatal(err)
	}
	if q.ErrorBound() > 0.05 {
		t.Fatalf("trained-model bound %g is uselessly loose", q.ErrorBound())
	}
}

// TestQuantizeEnsembleRejects pins the fail-closed cases: topologies the
// error proof does not cover and diverged weights must refuse to build.
func TestQuantizeEnsembleRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		net  *Network
		want string
	}{
		{"tanh-hidden", MustNew(rng, []int{3, 4, 1}, Tanh, Linear), "sigmoid"},
		{"relu-hidden", MustNew(rng, []int{3, 4, 1}, ReLU, Linear), "sigmoid"},
		{"sigmoid-output", MustNew(rng, []int{3, 4, 1}, Sigmoid, Sigmoid), "linear"},
		{"wide-output", MustNew(rng, []int{3, 4, 2}, Sigmoid, Linear), "width"},
	}
	diverged := MustNew(rng, []int{3, 4, 1}, Sigmoid, Linear)
	diverged.weights[0][0] = 1e6
	cases = append(cases, struct {
		name string
		net  *Network
		want string
	}{"diverged", diverged, "int16 range"})
	nan := MustNew(rng, []int{3, 4, 1}, Sigmoid, Linear)
	nan.weights[1][0] = math.NaN()
	cases = append(cases, struct {
		name string
		net  *Network
		want string
	}{"nan", nan, "non-finite"})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := QuantizeEnsemble(&Ensemble{nets: []*Network{tc.net}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	if _, err := QuantizeEnsemble(nil); err == nil {
		t.Fatal("nil ensemble quantised")
	}
}

// TestQuantizeQ14 pins the rounding/saturation behaviour the tuning
// package's precomputed tables must mirror exactly.
func TestQuantizeQ14(t *testing.T) {
	cases := []struct {
		x    float64
		want int16
	}{
		{0, 0},
		{1, qOne},
		{0.5, qOne / 2},
		{-1, -qOne},
		{2, 32767},   // saturates: 2·2^14 = 32768 overflows
		{-2, -32768}, // exact
		{1e9, 32767}, // clamp high
		{-1e9, -32768},
		{math.NaN(), -32768}, // deterministic, not platform-defined
		{1.0 / 32768, 1},     // 0.5 ulp rounds away from zero (math.Round)
	}
	for _, tc := range cases {
		if got := QuantizeQ14(tc.x); got != tc.want {
			t.Errorf("QuantizeQ14(%g) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

// TestEngineZeroAlloc pins the steady-state allocation contract: with a
// reused scratch, every engine's batch pass allocates nothing.
func TestEngineZeroAlloc(t *testing.T) {
	ecs := engineCases(t)
	e := ecs[1].e // paper-shape
	rng := rand.New(rand.NewSource(3))
	const count = 64
	xs := engineInputs(rng, count, e.nets[0].sizes[0])
	dst := make([]float64, count)
	for _, name := range EngineNames() {
		eng := newBatchEngine(t, name, e, count)
		if n := testing.AllocsPerRun(50, func() {
			eng.run(xs, count, dst)
		}); n != 0 {
			t.Errorf("%s batch pass: %v allocs/run", name, n)
		}
	}
}

// TestQuantScratchCapacityPanic pins the over-capacity guard.
func TestQuantScratchCapacityPanic(t *testing.T) {
	ecs := engineCases(t)
	q, err := QuantizeEnsemble(ecs[0].e)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on over-capacity batch")
		}
	}()
	s := q.NewQuantScratch(2)
	q.PredictBatchQ14(make([]int16, 3*q.InputDim()), 3, s, make([]float64, 3))
}

// TestFingerprint pins the content-tag semantics incremental top-M
// relies on: identical content hashes equal, any weight/topology/order
// change hashes differently.
func TestFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := MustNew(rng, []int{3, 5, 1}, Sigmoid, Linear)
	if a.Fingerprint() != a.Clone().Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	b := a.Clone()
	b.weights[0][2] += 1e-12
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("weight perturbation not detected")
	}
	c := MustNew(rng, []int{3, 5, 1}, Tanh, Linear)
	copyWeights := func(dst, src *Network) {
		for l := range src.weights {
			copy(dst.weights[l], src.weights[l])
		}
	}
	copyWeights(c, a)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("activation change not detected")
	}

	e := &Ensemble{nets: []*Network{a, b}}
	tags := e.MemberFingerprints(nil)
	if len(tags) != 2 || tags[0] != a.Fingerprint() || tags[1] != b.Fingerprint() {
		t.Fatalf("member tags %v not positional", tags)
	}
}

// FuzzInt16WithinBound drives random models and random in-domain float
// inputs through the int16 engine, Q14 rounding included, and asserts
// the advertised bound against the reference: this is the
// error proof's empirical adversary.
func FuzzInt16WithinBound(f *testing.F) {
	f.Add(int64(1), 1.0, 0.25, -0.5, 0.75)
	f.Add(int64(42), 8.0, 2.0, -2.0, 0.0)
	f.Add(int64(7), 0.001, 1.999, -1.999, 1.0/3.0)
	f.Fuzz(func(t *testing.T, seed int64, scale, x0, x1, x2 float64) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(8)
		hidden := 1 + rng.Intn(16)
		n := MustNew(rng, []int{dim, hidden, 1}, Sigmoid, Linear)
		s := math.Abs(scale)
		if s > 1000 {
			s = math.Mod(s, 1000)
		}
		for _, w := range n.weights {
			for j := range w {
				w[j] *= s
			}
		}
		e := &Ensemble{nets: []*Network{n, n.Clone()}}
		if _, err := QuantizeEnsemble(e); err != nil {
			return // diverged scale: refusing is the correct behaviour
		}
		clamp := func(x float64) float64 {
			if math.IsNaN(x) {
				return 0
			}
			return math.Max(QuantInputLo, math.Min(QuantInputHi, x))
		}
		count := 3
		xs := make([]float64, count*dim)
		seedVals := []float64{clamp(x0), clamp(x1), clamp(x2)}
		for i := range xs {
			if i < len(seedVals) {
				xs[i] = seedVals[i]
			} else {
				xs[i] = QuantInputLo + rng.Float64()*(QuantInputHi-QuantInputLo)
			}
		}
		got := make([]float64, count)
		eng := newBatchEngine(t, EngineInt16, e, count)
		eng.run(xs, count, got)
		withinBound(t, e, xs, got, eng.bound)
	})
}
