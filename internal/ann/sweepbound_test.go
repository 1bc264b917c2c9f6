package ann

import (
	"math"
	"math/rand"
	"testing"
)

// floatSweepLevels draws in-domain float64 feature levels for positions
// positions (arities cycling through 3, 2 and 4, so every odometer carry
// depth occurs) and tailLen fixed tail features. The domain edges and
// zero are drawn often: they are where Q14 rounding and saturation act.
func floatSweepLevels(rng *rand.Rand, positions, tailLen int) (levels [][]float64, tail []float64) {
	draw := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return QuantInputLo
		case 1:
			return QuantInputHi
		case 2:
			return 0
		default:
			return QuantInputLo + rng.Float64()*(QuantInputHi-QuantInputLo)
		}
	}
	arities := []int{3, 2, 4}
	for p := 0; p < positions; p++ {
		lv := make([]float64, arities[p%len(arities)])
		for v := range lv {
			lv[v] = draw()
		}
		levels = append(levels, lv)
	}
	for t := 0; t < tailLen; t++ {
		tail = append(tail, draw())
	}
	return levels, tail
}

// NewSweeper builds the sweeper NewOrderedSweeper builds in declaration
// order.
func (q *QuantizedEnsemble) NewSweeper(ref *Ensemble, levels [][]float64, tail []float64) (*QuantSweeper, error) {
	return q.NewOrderedSweeper(ref, levels, tail, nil)
}

// checkSweepContainment builds NewSweeper over levels and tail and
// checks its contract on every configuration of the space: the sweep
// bound is no wider than the engine's ErrorBound, and the bracket
// Bounds reports contains the float64 reference prediction. It returns
// the sweep bound.
func checkSweepContainment(tb testing.TB, q *QuantizedEnsemble, e *Ensemble, levels [][]float64, tail []float64) float64 {
	tb.Helper()
	sw, err := q.NewSweeper(e, levels, tail)
	if err != nil {
		tb.Fatal(err)
	}
	if !(sw.bound > 0 && sw.bound <= q.ErrorBound()) {
		tb.Fatalf("sweep bound %g outside (0, ErrorBound %g]", sw.bound, q.ErrorBound())
	}
	lb := make([]float64, sw.Size())
	ub := make([]float64, sw.Size())
	sw.Bounds(0, int(sw.Size()), lb, ub)
	ps := e.NewScratch()
	x := append(make([]float64, len(levels)), tail...)
	for idx := int64(0); idx < sw.Size(); idx++ {
		rem := idx
		for p := len(levels) - 1; p >= 0; p-- {
			arity := int64(len(levels[p]))
			x[p] = levels[p][rem%arity]
			rem /= arity
		}
		if ref := e.Predict(x, ps); !(lb[idx] <= ref && ref <= ub[idx]) {
			tb.Fatalf("index %d: reference %g outside the sweep bracket [%g, %g] (sweep bound %g, error %g)",
				idx, ref, lb[idx], ub[idx], sw.bound, math.Abs(ref-(lb[idx]+ub[idx])/2))
		}
	}
	return sw.bound
}

// TestSweepBoundContainment pins the sweep bound's contract over every
// conformance topology, on every configuration of a space with and
// without a bound tail: the bracket contains the float64 reference and
// is no wider than ErrorBound. A member deeper than the paper topology
// has no sweep-specific proof and keeps the engine bound exactly.
func TestSweepBoundContainment(t *testing.T) {
	for _, ec := range engineCases(t) {
		q := quantize16(t, ec.e)
		dim := q.InputDim()
		deep := len(ec.e.nets[0].weights) > 2
		// Every case has at least two inputs, so both spaces have a position.
		for _, tailLen := range []int{0, min(2, dim-1)} {
			rng := rand.New(rand.NewSource(int64(73 + tailLen)))
			levels, tail := floatSweepLevels(rng, dim-tailLen, tailLen)
			bound := checkSweepContainment(t, q, ec.e, levels, tail)
			if deep && bound != q.ErrorBound() {
				t.Errorf("%s tail %d: deep sweep bound %g, want the engine bound %g", ec.name, tailLen, bound, q.ErrorBound())
			}
			t.Logf("%s tail %d: sweep bound %.3g = %.0f%% of the engine bound %.3g",
				ec.name, tailLen, bound, 100*bound/q.ErrorBound(), q.ErrorBound())
		}
	}
}

// FuzzSweepBound checks the sweep bound's containment on random
// ensembles: paper-topology or single-layer linear members with weights
// up to mag in magnitude — near int16 saturation at the top of the
// range, pre-activations far beyond the sigmoid grid's ±16 in between —
// over random in-domain levels and tails.
func FuzzSweepBound(f *testing.F) {
	f.Add(int64(1), 1.0, uint8(0x25))
	f.Add(int64(2), 32000.0, uint8(0x1b))
	f.Add(int64(3), 40.0, uint8(0x3f))
	f.Add(int64(4), 1e-5, uint8(0x12))
	f.Add(int64(5), 7.0, uint8(0x83))
	f.Fuzz(func(t *testing.T, seed int64, mag float64, shape uint8) {
		if !(mag > 0 && mag <= 32767) {
			t.Skip("weight magnitude outside what the int16 quantiser accepts")
		}
		rng := rand.New(rand.NewSource(seed))
		in := 1 + int(shape&3)
		hidden := 1 + int(shape>>2&7)
		sizes, acts := []int{in, hidden, 1}, []Activation{Sigmoid, Linear}
		if shape&0x80 != 0 {
			sizes, acts = []int{in, 1}, []Activation{Linear}
		}
		nets := make([]*Network, 1+int(shape>>5&3))
		for i := range nets {
			n := MustNew(rng, sizes, acts...)
			for _, w := range n.weights {
				for j := range w {
					w[j] = mag * (2*rng.Float64() - 1)
					if rng.Intn(8) == 0 {
						w[j] = math.Copysign(mag, w[j])
					}
				}
			}
			nets[i] = n
		}
		e := &Ensemble{nets: nets}
		q, err := QuantizeEnsemble(e)
		if err != nil {
			t.Skip(err)
		}
		tailLen := rng.Intn(in)
		levels, tail := floatSweepLevels(rng, in-tailLen, tailLen)
		checkSweepContainment(t, q, e, levels, tail)
	})
}

// FuzzBoundsCeil checks BoundsCeil's contract (see TestSweeperBoundsCeil)
// at the last bit, on FuzzSweepBound's kind of random ensembles: 1–4
// paper-topology or single-layer linear members with weights up to mag,
// so the cut's floors and rounding slack meet large, cancelling member
// terms. The ceilings sit at exact lb values and one ulp either side,
// where a cut that is not exact would drop an entry whose lb equals the
// ceiling. The windows have random lengths and sometimes jump, so they
// cut tiles and subtrees, and one walk runs on a Fork.
func FuzzBoundsCeil(f *testing.F) {
	f.Add(int64(1), 1.0, uint8(0x37))
	f.Add(int64(2), 32000.0, uint8(0x7b))
	f.Add(int64(3), 40.0, uint8(0x7f))
	f.Add(int64(4), 1e-5, uint8(0x6e))
	f.Add(int64(5), 7.0, uint8(0xe3))
	f.Fuzz(func(t *testing.T, seed int64, mag float64, shape uint8) {
		if !(mag > 0 && mag <= 32767) {
			t.Skip("weight magnitude outside what the int16 quantiser accepts")
		}
		rng := rand.New(rand.NewSource(seed))
		in := 1 + int(shape&3)
		hidden := 1 + int(shape>>2&7)
		sizes, acts := []int{in, hidden, 1}, []Activation{Sigmoid, Linear}
		if shape&0x80 != 0 {
			sizes, acts = []int{in, 1}, []Activation{Linear}
		}
		nets := make([]*Network, 1+int(shape>>5&3))
		for i := range nets {
			n := MustNew(rng, sizes, acts...)
			for _, w := range n.weights {
				for j := range w {
					w[j] = mag * (2*rng.Float64() - 1)
					if rng.Intn(8) == 0 {
						w[j] = math.Copysign(mag, w[j])
					}
				}
			}
			nets[i] = n
		}
		e := &Ensemble{nets: nets}
		q, err := QuantizeEnsemble(e)
		if err != nil {
			t.Skip(err)
		}
		tailLen := rng.Intn(in)
		levels, tail := floatSweepLevels(rng, in-tailLen, tailLen)
		ref, err := q.NewSweeper(e, levels, tail)
		if err != nil {
			t.Fatal(err)
		}
		size := ref.Size()
		wantLb := make([]float64, size)
		wantUb := make([]float64, size)
		ref.Bounds(0, int(size), wantLb, wantUb)

		lb := make([]float64, size)
		ub := make([]float64, size)
		for c := 0; c < 3; c++ {
			at := wantLb[rng.Int63n(size)]
			for _, ceil := range []float64{math.Nextafter(at, math.Inf(-1)), at, math.Nextafter(at, math.Inf(1))} {
				sw, err := q.NewSweeper(e, levels, tail)
				if err != nil {
					t.Fatal(err)
				}
				if c == 1 {
					sw.Floor(0, size)
					sw = sw.Fork()
				}
				// Walk the space twice over in windows of random length,
				// continuing where the last one ended or jumping.
				for start, walked := int64(0), int64(0); walked < 2*size; {
					if rng.Intn(4) == 0 {
						start = rng.Int63n(size)
					}
					n := 1 + rng.Int63n(size-start)
					sw.BoundsCeil(start, int(n), lb, ub, ceil)
					for i := int64(0); i < n; i++ {
						idx := start + i
						if math.IsInf(lb[i], 1) {
							if !math.IsInf(ub[i], 1) || wantLb[idx] <= ceil {
								t.Fatalf("ceil %v index %d: pruned to [%v, %v] but true lb %v ≤ ceil",
									ceil, idx, lb[i], ub[i], wantLb[idx])
							}
						} else if lb[i] != wantLb[idx] || ub[i] != wantUb[idx] {
							t.Fatalf("ceil %v index %d: [%v, %v] != Bounds [%v, %v]",
								ceil, idx, lb[i], ub[i], wantLb[idx], wantUb[idx])
						}
					}
					walked += n
					start = (start + n) % size
				}
			}
		}
	})
}

// FuzzIndexScorer checks the scorer's contract (see
// TestIndexScorerMatchesBatch) on FuzzSweepBound's kind of random
// ensembles: 1–4 paper-topology or single-layer linear members with
// weights up to mag, whose accumulators reach far past the sigmoid grid
// and whose terms cancel. Every index of a random space with a random
// tail, in order and then jumping, must score exactly PredictBatchQ14 of
// its features; so must indices of a second space whose arities are
// drawn around ScoreTables' merge cap.
func FuzzIndexScorer(f *testing.F) {
	f.Add(int64(1), 1.0, uint8(0x37))
	f.Add(int64(2), 32000.0, uint8(0x7b))
	f.Add(int64(3), 40.0, uint8(0x7f))
	f.Add(int64(4), 1e-5, uint8(0x6e))
	f.Add(int64(5), 7.0, uint8(0xe3))
	f.Fuzz(func(t *testing.T, seed int64, mag float64, shape uint8) {
		if !(mag > 0 && mag <= 32767) {
			t.Skip("weight magnitude outside what the int16 quantiser accepts")
		}
		rng := rand.New(rand.NewSource(seed))
		in := 1 + int(shape&3)
		hidden := 1 + int(shape>>2&7)
		sizes, acts := []int{in, hidden, 1}, []Activation{Sigmoid, Linear}
		if shape&0x80 != 0 {
			sizes, acts = []int{in, 1}, []Activation{Linear}
		}
		nets := make([]*Network, 1+int(shape>>5&3))
		for i := range nets {
			n := MustNew(rng, sizes, acts...)
			for _, w := range n.weights {
				for j := range w {
					w[j] = mag * (2*rng.Float64() - 1)
					if rng.Intn(8) == 0 {
						w[j] = math.Copysign(mag, w[j])
					}
				}
			}
			nets[i] = n
		}
		e := &Ensemble{nets: nets}
		q, err := QuantizeEnsemble(e)
		if err != nil {
			t.Skip(err)
		}
		tailLen := rng.Intn(in)
		levels, tail := floatSweepLevels(rng, in-tailLen, tailLen)
		sp := sweepSpace{tail: quantizeQ14All(tail), size: 1}
		for _, lv := range levels {
			sp.levels = append(sp.levels, quantizeQ14All(lv))
			sp.size *= int64(len(lv))
		}
		sw, err := q.NewIndexSweeper(sp.levels, sp.tail)
		if err != nil {
			t.Fatal(err)
		}
		sc := sw.NewScorer()
		scratch := q.NewQuantScratch(1)
		want := make([]float64, 1)
		var qxs []int16
		for k := int64(0); k < 2*sp.size; k++ {
			idx := k
			if k >= sp.size {
				idx = rng.Int63n(sp.size)
			}
			qxs = sp.encodeIndex(idx, qxs[:0])
			q.PredictBatchQ14(qxs, 1, scratch, want)
			if got := sc.Score(idx); math.Float64bits(got) != math.Float64bits(want[0]) {
				t.Fatalf("index %d: Score %v != PredictBatchQ14 %v", idx, got, want[0])
			}
		}

		// The same contract on random arities around the merge cap, so
		// runs merge, pass the cap partway or stop at a position above it,
		// and a small last position could be absorbed but must not be:
		// the first indices in order, then random jumps.
		positions := 1 + rng.Intn(in)
		arities := make([]int, positions)
		for p := range arities {
			arities[p] = []int{1, 2, 3, 4, 5, 8, 16, 17}[rng.Intn(8)]
		}
		msp, _ := aritySpace(rng, in, arities)
		msw, err := q.NewIndexSweeper(msp.levels, msp.tail)
		if err != nil {
			t.Fatal(err)
		}
		msc := msw.NewScorer()
		for k := int64(0); k < 512; k++ {
			idx := k
			if k >= 256 || idx >= msp.size {
				idx = rng.Int63n(msp.size)
			}
			qxs = msp.encodeIndex(idx, qxs[:0])
			q.PredictBatchQ14(qxs, 1, scratch, want)
			if got := msc.Score(idx); math.Float64bits(got) != math.Float64bits(want[0]) {
				t.Fatalf("arities %v, index %d: Score %v != PredictBatchQ14 %v", arities, idx, got, want[0])
			}
		}
	})
}
