package main

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
)

// A run through countingMeasurer must be the run it wraps: same best
// configuration, same simulated cost (which needs Coster forwarded),
// same measured fraction.
func TestCountingMeasurerRunMatchesUnwrapped(t *testing.T) {
	opts := tuneOptions(3)
	opts.TrainingSamples, opts.SecondStage = 40, 8
	opts.Model.Ensemble.Train.Epochs = 20
	run := func(wrap bool) (*core.Result, *countingMeasurer, *core.SimMeasurer) {
		meas, err := core.NewSimMeasurer(bench.MustLookup("convolution"), devsim.MustLookup(devsim.IntelI7), bench.Size{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var m core.Measurer = meas
		var w *countingMeasurer
		if wrap {
			w = &countingMeasurer{inner: meas}
			m = w
		}
		s, err := core.NewSession(m, opts, core.WithWorkers(tuneWorkers))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background(), "ml")
		if err != nil {
			t.Fatal(err)
		}
		if w != nil {
			if fresh, _ := s.CacheStats(); w.calls.Load() != int64(fresh) {
				t.Errorf("wrapper counted %d calls, session made %d fresh measurements", w.calls.Load(), fresh)
			}
		}
		return res, w, meas
	}
	plain, _, _ := run(false)
	wrapped, w, meas := run(true)

	if plain.Found != wrapped.Found || plain.Best.Index() != wrapped.Best.Index() || plain.BestSeconds != wrapped.BestSeconds {
		t.Errorf("best: wrapped (%v, %d, %g), unwrapped (%v, %d, %g)", wrapped.Found, wrapped.Best.Index(),
			wrapped.BestSeconds, plain.Found, plain.Best.Index(), plain.BestSeconds)
	}
	if plain.Cost.GatherSeconds != wrapped.Cost.GatherSeconds || plain.Cost.SecondStageSeconds != wrapped.Cost.SecondStageSeconds {
		t.Errorf("simulated cost: wrapped %+v, unwrapped %+v", wrapped.Cost, plain.Cost)
	}
	if plain.MeasuredFraction != wrapped.MeasuredFraction || plain.Measured != wrapped.Measured || plain.Invalid != wrapped.Invalid {
		t.Errorf("measured: wrapped (%g, %d, %d), unwrapped (%g, %d, %d)", wrapped.MeasuredFraction, wrapped.Measured,
			wrapped.Invalid, plain.MeasuredFraction, plain.Measured, plain.Invalid)
	}
	want, err := meas.TrueTime(wrapped.Best)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := w.TrueTime(wrapped.Best); err != nil || got != want {
		t.Errorf("TrueTime through the wrapper = %g, %v; want %g", got, err, want)
	}
	if got := w.CompileSeconds(wrapped.Best); got != meas.CompileSeconds(wrapped.Best) || got == 0 {
		t.Errorf("CompileSeconds through the wrapper = %g, want %g", got, meas.CompileSeconds(wrapped.Best))
	}
}

func TestQuantileInterpolatesBetweenOrderStatistics(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.99, 3.97}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// Self time subtracts the union of the children's intervals, so two
// overlapping concurrent children are not counted twice.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.t0.Add(time.Duration(ns)) }
	root := tr.id()
	tr.record("child", root, root, at(10), at(50))
	tr.record("child", root, root, at(30), at(70))
	tr.record("child", root, root, at(90), at(95))
	tr.add("root", root, 0, root, at(0), at(100))
	for _, s := range tr.finish() {
		if s.Name == "root" && s.Self != 100-60-5 {
			t.Errorf("root self time = %d, want %d", s.Self, 100-60-5)
		}
	}
}

// A stall that spoils one window of five leaves the windowed tail at
// the typical windows' tail.
func TestWindowedQuantileIgnoresOneSpoiledWindow(t *testing.T) {
	var xs []float64
	for w := 0; w < 5; w++ {
		for i := 1; i <= 10; i++ {
			x := float64(i)
			if w == 2 {
				x *= 100
			}
			xs = append(xs, x)
		}
	}
	if got, want := windowedQuantile(xs, 10, 0.9), quantile(xs[:10], 0.9); got != want {
		t.Errorf("windowed p90 = %g, want %g", got, want)
	}
	if got, want := windowedQuantile(xs[:15], 10, 0.9), quantile(xs[:15], 0.9); got != want {
		t.Errorf("windowed p90 of fewer than two windows = %g, want the pooled %g", got, want)
	}
}
