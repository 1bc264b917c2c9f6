package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, computed exactly
// from the recorded values by linear interpolation between the two
// nearest order statistics (the "type 7" estimator). xs is not
// modified. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedQuantile cuts xs, recorded in time order, into consecutive
// windows of window values (a short tail joins the last window), takes
// the q-quantile of each and returns their median. A tail quantile
// taken this way reads the tail of the program's typical behaviour: a
// stall of the host that spoils a few windows moves it far less than it
// moves the quantile of the pooled values.
func windowedQuantile(xs []float64, window int, q float64) float64 {
	if len(xs) < 2*window {
		return quantile(xs, q)
	}
	var qs []float64
	for lo := 0; lo+window <= len(xs); lo += window {
		hi := lo + window
		if len(xs)-hi < window {
			hi = len(xs)
		}
		qs = append(qs, quantile(xs[lo:hi], q))
	}
	return median(qs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// metric is one reported figure: its value, unit and the number of
// recorded samples it was computed from.
type metric struct {
	Value float64
	Unit  string
	N     int
}

// report collects the metrics of one run in the order they are added.
type report struct {
	names   []string
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) add(name string, value float64, unit string, n int) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// addQuantile adds the q-quantile of xs under name.
func (r *report) addQuantile(name string, xs []float64, q float64, unit string) {
	r.add(name, quantile(xs, q), unit, len(xs))
}

// addWindowedQuantile adds the windowed q-quantile of xs under name.
func (r *report) addWindowedQuantile(name string, xs []float64, window int, q float64, unit string) {
	r.add(name, windowedQuantile(xs, window, q), unit, len(xs))
}

// print writes one human-readable line per metric, with its sample
// count.
func (r *report) print(prefix string) {
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Printf("%s %-32s %14.6g %-6s (n=%d)\n", prefix, name, m.Value, m.Unit, m.N)
	}
}
