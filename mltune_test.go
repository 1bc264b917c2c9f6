package mltune_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	mltune "repro"
)

func TestFacadeCatalogs(t *testing.T) {
	if got := mltune.BenchmarkNames(); len(got) != 3 {
		t.Errorf("BenchmarkNames = %v", got)
	}
	if got := mltune.DeviceNames(); len(got) != 5 {
		t.Errorf("DeviceNames = %v", got)
	}
	if got := mltune.Benchmarks(); len(got) != 3 {
		t.Errorf("Benchmarks returned %d", len(got))
	}
	if got := mltune.PaperDevices(); len(got) != 3 {
		t.Errorf("PaperDevices returned %d", len(got))
	}
	if _, err := mltune.LookupBenchmark("convolution"); err != nil {
		t.Error(err)
	}
	if _, err := mltune.LookupDevice(mltune.AMD7970); err != nil {
		t.Error(err)
	}
	if _, err := mltune.LookupBenchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	exps := mltune.Experiments()
	if len(exps) < 12 {
		t.Errorf("only %d experiments registered: %v", len(exps), exps)
	}
}

func TestFacadeMeasurerAndSpaceBuilders(t *testing.T) {
	m, err := mltune.NewMeasurer("convolution", mltune.IntelI7, mltune.Size{W: 512, H: 512})
	if err != nil {
		t.Fatal(err)
	}
	if m.Space().Size() != 131072 {
		t.Errorf("space size = %d", m.Space().Size())
	}

	space := mltune.NewSpace("custom",
		mltune.Pow2Param("a", 1, 4),
		mltune.BoolParam("b"),
		mltune.NewParam("c", 3, 5, 7),
	)
	if space.Size() != 3*2*3 {
		t.Errorf("custom space size = %d", space.Size())
	}
}

func TestFacadeEndToEndTune(t *testing.T) {
	space := mltune.NewSpace("toy",
		mltune.Pow2Param("x", 1, 64),
		mltune.Pow2Param("y", 1, 64),
	)
	m := &mltune.FuncMeasurer{
		TuningSpace: space,
		Fn: func(cfg mltune.Config) (float64, error) {
			// Optimum at x=64, y=1.
			return 1.0/float64(cfg.Value("x")) + 0.05*float64(cfg.Value("y")), nil
		},
	}
	opts := mltune.DefaultOptions(5)
	opts.TrainingSamples = 25
	opts.SecondStage = 12
	run := func(opts mltune.Options, strategy string) *mltune.Result {
		t.Helper()
		s, err := mltune.NewSession(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background(), strategy)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(opts, "ml")
	if !res.Found {
		t.Fatal("no result")
	}
	ex := run(mltune.Options{}, "exhaustive")
	if res.BestSeconds > 3*ex.BestSeconds {
		t.Errorf("tuned %v vs optimum %v", res.BestSeconds, ex.BestSeconds)
	}
	rnd := run(mltune.Options{Budget: 20, Seed: 1}, "random")
	if !rnd.Found {
		t.Error("random search found nothing")
	}
}

func TestFacadeRuntimeMeasurer(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime measurer executes kernels functionally; skipped in -short")
	}
	b, _ := mltune.LookupBenchmark("convolution")
	m, err := mltune.NewRuntimeMeasurer("convolution", mltune.NvidiaK40, b.TestSize(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := b.Space().FromMap(map[string]int{
		"wg_x": 8, "wg_y": 8, "ppt_x": 1, "ppt_y": 1,
		"use_image": 0, "use_local": 0, "pad": 0, "interleaved": 0, "unroll": 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	secs, err := m.Measure(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Errorf("measured %v", secs)
	}
}

func TestFacadeSessionAPI(t *testing.T) {
	have := map[string]bool{}
	for _, name := range mltune.Registry() {
		have[name] = true
	}
	for _, want := range []string{"ml", "random", "hillclimb", "exhaustive"} {
		if !have[want] {
			t.Errorf("strategy %q not in registry %v", want, mltune.Registry())
		}
	}

	space := mltune.NewSpace("toy2",
		mltune.Pow2Param("x", 1, 64),
		mltune.Pow2Param("y", 1, 64),
	)
	m := &mltune.FuncMeasurer{
		TuningSpace: space,
		Fn: func(cfg mltune.Config) (float64, error) {
			return 1.0/float64(cfg.Value("x")) + 0.05*float64(cfg.Value("y")), nil
		},
	}
	events := 0
	opts := mltune.DefaultOptions(8)
	opts.TrainingSamples = 25
	opts.SecondStage = 10
	s, err := mltune.NewSession(m, opts,
		mltune.WithWorkers(2),
		mltune.WithObserver(func(ev mltune.Event) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), "ml")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Strategy != "ml" {
		t.Fatalf("session run: %+v", res)
	}
	if events == 0 {
		t.Error("observer saw no events")
	}

	// Model persistence through the facade.
	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := mltune.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.At(5)
	if got, want := loaded.Predict(loaded.Space().At(5), loaded.NewScratch()),
		res.Model.Predict(cfg, res.Model.NewScratch()); got != want {
		t.Errorf("loaded model predicts %v, original %v", got, want)
	}

	// A cancelled context aborts the run with a wrapped ctx error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, "random"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v", err)
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := mltune.RunExperiment("table1", "smoke", 1, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"convolution", "131072", "655360", "2359296"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
	if err := mltune.RunExperiment("table1", "warp9", 1, nil); err == nil {
		t.Error("bad scale accepted")
	}
	if err := mltune.RunExperiment("fig99", "smoke", 1, nil); err == nil {
		t.Error("unknown experiment accepted")
	}
}
