// Package stats provides the small statistical toolkit used throughout the
// auto-tuning experiments: means, deviations, percentiles, relative errors
// and simple correlation measures.
//
// All functions operate on float64 slices, never modify their input unless
// documented otherwise, and define sensible results for empty input (zero
// values) so callers can aggregate partial experiment results without
// special-casing.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest element of xs and its index, or (+Inf, -1) for
// empty input.
func Min(xs []float64) (float64, int) {
	best, idx := math.Inf(1), -1
	for i, x := range xs {
		if x < best {
			best, idx = x, i
		}
	}
	return best, idx
}

// Max returns the largest element of xs and its index, or (-Inf, -1) for
// empty input.
func Max(xs []float64) (float64, int) {
	best, idx := math.Inf(-1), -1
	for i, x := range xs {
		if x > best {
			best, idx = x, i
		}
	}
	return best, idx
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies xs, leaving it unchanged.
// Returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// RelError returns |predicted-actual| / |actual|. Returns +Inf when actual
// is zero and predicted is not, and 0 when both are zero.
func RelError(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// MeanRelError returns the mean of element-wise relative errors between the
// predicted and actual slices. The paper reports this as "mean error".
// Panics if the slices have different lengths.
func MeanRelError(predicted, actual []float64) float64 {
	if len(predicted) != len(actual) {
		panic("stats: MeanRelError length mismatch")
	}
	if len(predicted) == 0 {
		return 0
	}
	sum := 0.0
	for i := range predicted {
		sum += RelError(predicted[i], actual[i])
	}
	return sum / float64(len(predicted))
}

// Pearson returns the Pearson correlation coefficient between xs and ys,
// or 0 if either series is constant. Panics on length mismatch.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation between xs and ys.
// Ties are assigned their average rank.
func Spearman(xs, ys []float64) float64 {
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based fractional ranks of xs (average rank for ties).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
