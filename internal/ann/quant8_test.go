package ann

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestInt8EngineBoundIsTight sanity-checks the residual-based proof is
// not vacuous: eight-bit weights are coarse, but for the paper-shaped
// trained model the measured-residual bound must stay well under the
// target scaler's std, and wider than int16's (which is why the top-M
// sweep screens int8 views through int16).
func TestInt8EngineBoundIsTight(t *testing.T) {
	ecs := engineCases(t)
	trained := ecs[len(ecs)-1].e
	q, err := Quantize8Ensemble(trained)
	if err != nil {
		t.Fatal(err)
	}
	if q.ErrorBound() > 0.5 {
		t.Fatalf("trained-model bound %g is uselessly loose", q.ErrorBound())
	}
	q16, err := QuantizeEnsemble(trained)
	if err != nil {
		t.Fatal(err)
	}
	if q.ErrorBound() <= q16.ErrorBound() {
		t.Fatalf("int8 bound %g not wider than int16's %g — the proof shape is wrong",
			q.ErrorBound(), q16.ErrorBound())
	}
}

// TestQuantize8EnsembleRejects pins the fail-closed cases: topologies
// the error proof does not cover and magnitudes past the int8/int32
// budgets must refuse to build.
func TestQuantize8EnsembleRejects(t *testing.T) {
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
	}{"diverged", diverged, "int8 range"})
	nan := MustNew(rng, []int{3, 4, 1}, Sigmoid, Linear)
	nan.weights[1][0] = math.NaN()
	cases = append(cases, struct {
		name string
		net  *Network
		want string
	}{"nan", nan, "non-finite"})
	// A bias too large to represent at any admissible row scale: at the
	// floor k = q8MinShift the bias scale is 2^(qLutBits) = 256, so 1e8
	// lands far past the int32 accumulator budget.
	hugeBias := MustNew(rng, []int{3, 4, 1}, Sigmoid, Linear)
	hugeBias.weights[0][3] = 1e8 // row 0's bias slot (in+1 stride)
	cases = append(cases, struct {
		name string
		net  *Network
		want string
	}{"huge-bias", hugeBias, "accumulator budget"})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Quantize8Ensemble(&Ensemble{nets: []*Network{tc.net}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	if _, err := Quantize8Ensemble(nil); err == nil {
		t.Fatal("nil ensemble quantised")
	}
}

// TestInt8PerRowScales pins that the per-row scale selection actually
// differentiates rows: a layer with one large-magnitude row and one
// tiny row must give the tiny row a strictly finer scale (larger
// shift), which is the whole point of per-row quantisation.
func TestInt8PerRowScales(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := MustNew(rng, []int{3, 2, 1}, Sigmoid, Linear)
	for i := 0; i < 3; i++ {
		n.weights[0][i] = 50 + float64(i)        // row 0: magnitudes ~50
		n.weights[0][4+i] = 0.001 * float64(i+1) // row 1: magnitudes ~0.003
	}
	q, err := Quantize8Ensemble(&Ensemble{nets: []*Network{n}})
	if err != nil {
		t.Fatal(err)
	}
	l0 := q.members[0][0]
	if l0.shift[1] <= l0.shift[0] {
		t.Fatalf("per-row scales not differentiated: shifts %v", l0.shift)
	}
}

// FuzzInt8WithinBound drives random models and random in-domain inputs
// through the int8 and reference engines and asserts the advertised
// bound: the residual-based error proof's empirical adversary.
func FuzzInt8WithinBound(f *testing.F) {
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
		q, err := Quantize8Ensemble(e)
		if err != nil {
			return // out-of-budget magnitudes: refusing is the correct behaviour
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
		ref := Float64Engine{E: e}
		want := make([]float64, count)
		got := make([]float64, count)
		ref.PredictBatch(xs, count, ref.NewScratch(count), want)
		q.PredictBatch(xs, count, q.NewScratch(count), got)
		for b := 0; b < count; b++ {
			if d := math.Abs(got[b] - want[b]); d > q.ErrorBound() {
				t.Fatalf("sample %d: |%g - %g| = %g exceeds bound %g",
					b, got[b], want[b], d, q.ErrorBound())
			}
		}
	})
}

// TestInt8AdmissibleImpliesInt16 pins the admissibility rule the top-M
// screen relies on: an int8 view screens through the int16 engine over
// the same weights, so wherever Quantize8Ensemble accepts a network,
// QuantizeEnsemble must accept it too. int8 refuses a connection weight
// of magnitude ≥ 8160 (127.5 at the coarsest row scale 2^-6), int16 one
// above 32767, and both refuse non-finite values; the magnitudes sit on
// both sides of each limit, in a hidden and in an output row.
//
// Biases are outside the rule: int8 stores them at its int32
// accumulator scale and admits magnitudes int16's range check refuses,
// so WithEngine(int8) in internal/core reports the int16 error for such
// a (diverged) model. The last assertion pins that gap.
func TestInt8AdmissibleImpliesInt16(t *testing.T) {
	values := []float64{0.5, 8159, 8159.99, 8160, 8161, 32767, 32767.4, 32768, 1e6,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	// Weight slots of a [3, 4, 1] network (row stride in+1, the bias
	// last): a hidden-row weight and the output row's first weight.
	slots := []struct {
		name       string
		layer, idx int
	}{{"hidden", 0, 1}, {"output", 1, 2}}
	build := func(layer, idx int, v float64) *Ensemble {
		n := MustNew(rand.New(rand.NewSource(5)), []int{3, 4, 1}, Sigmoid, Linear)
		n.weights[layer][idx] = v
		return &Ensemble{nets: []*Network{n}}
	}
	for _, sl := range slots {
		for _, mag := range values {
			for _, v := range []float64{mag, -mag} {
				e := build(sl.layer, sl.idx, v)
				_, err8 := Quantize8Ensemble(e)
				_, err16 := QuantizeEnsemble(e)
				finite := !math.IsNaN(v) && !math.IsInf(v, 0)
				want8 := finite && math.Abs(v) < 8160
				want16 := finite && math.Abs(v) <= 32767
				if (err8 == nil) != want8 || (err16 == nil) != want16 {
					t.Errorf("%s weight %g: int8 err %v (want ok=%v), int16 err %v (want ok=%v)",
						sl.name, v, err8, want8, err16, want16)
				}
				if err8 == nil && err16 != nil {
					t.Errorf("%s weight %g: int8 admits what int16 refuses: %v", sl.name, v, err16)
				}
			}
		}
	}

	bias := build(0, 3, 40000) // hidden row 0's bias slot
	if _, err := Quantize8Ensemble(bias); err != nil {
		t.Errorf("bias 40000: int8 refused: %v", err)
	}
	if _, err := QuantizeEnsemble(bias); err == nil || !strings.Contains(err.Error(), "int16 range") {
		t.Errorf("bias 40000: int16 err %v, want the int16 range refusal", err)
	}
}
