package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if got := Variance([]float64{42}); got != 0 {
		t.Errorf("Variance of singleton = %g, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if v, i := Min(xs); v != 1 || i != 1 {
		t.Errorf("Min = (%g, %d), want (1, 1)", v, i)
	}
	if v, i := Max(xs); v != 5 || i != 4 {
		t.Errorf("Max = (%g, %d), want (5, 4)", v, i)
	}
	if v, i := Min(nil); !math.IsInf(v, 1) || i != -1 {
		t.Errorf("Min(nil) = (%g, %d), want (+Inf, -1)", v, i)
	}
	if v, i := Max(nil); !math.IsInf(v, -1) || i != -1 {
		t.Errorf("Max(nil) = (%g, %d), want (-Inf, -1)", v, i)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {200, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %g, want 0", got)
	}
	// Input must not be modified.
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", orig)
	}
}

func TestRelError(t *testing.T) {
	if got := RelError(11, 10); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("RelError(11,10) = %g, want 0.1", got)
	}
	if got := RelError(9, 10); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("RelError(9,10) = %g, want 0.1", got)
	}
	if got := RelError(0, 0); got != 0 {
		t.Errorf("RelError(0,0) = %g, want 0", got)
	}
	if got := RelError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelError(1,0) = %g, want +Inf", got)
	}
}

func TestMeanRelError(t *testing.T) {
	pred := []float64{11, 18}
	act := []float64{10, 20}
	if got := MeanRelError(pred, act); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("MeanRelError = %g, want 0.1", got)
	}
	if got := MeanRelError(nil, nil); got != 0 {
		t.Errorf("MeanRelError(nil,nil) = %g, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MeanRelError with mismatched lengths did not panic")
		}
	}()
	MeanRelError([]float64{1}, []float64{1, 2})
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson perfect positive = %g, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson perfect negative = %g, want -1", got)
	}
	if got := Pearson(xs, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("Pearson with constant series = %g, want 0", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform has rank correlation 1.
	xs := []float64{1, 2, 5, 9, 12}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	if got := Spearman(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Spearman of monotone transform = %g, want 1", got)
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

// Property: mean is within [min, max] and percentiles are monotone.
func TestQuickMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				// Scale down to avoid float overflow in sums.
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		m := Mean(xs)
		if m < mn-1e-6 || m > mx+1e-6 {
			return false
		}
		p25, p50, p75 := Percentile(xs, 25), Percentile(xs, 50), Percentile(xs, 75)
		return p25 <= p50+1e-9 && p50 <= p75+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: Pearson is symmetric and bounded by [-1, 1].
func TestQuickPearsonBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for j := range xs {
			xs[j] = rng.NormFloat64()
			ys[j] = rng.NormFloat64()
		}
		r1 := Pearson(xs, ys)
		r2 := Pearson(ys, xs)
		if !almostEqual(r1, r2, 1e-12) {
			t.Fatalf("Pearson not symmetric: %g vs %g", r1, r2)
		}
		if r1 < -1-1e-9 || r1 > 1+1e-9 {
			t.Fatalf("Pearson out of bounds: %g", r1)
		}
	}
}
