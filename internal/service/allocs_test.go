package service

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/storage"
)

// TestServePathAllocs pins the allocations of the serve path on a
// raycasting model of the paper's shape (11 members × 30 hidden) served
// under the int16 engine: Server.Predict of one index, Server.PredictBatch
// of 16 indices, and the view's PredictIndices beneath both. The counts
// are exact: a rise fails, and a change that lowers one moves its pin.
// They hold for the gc toolchain on amd64 without the race detector,
// which adds allocations of its own.
func TestServePathAllocs(t *testing.T) {
	if runtime.GOARCH != "amd64" || raceEnabled {
		t.Skip("allocation counts are pinned on amd64 without -race")
	}
	b := bench.MustLookup("raycasting")
	meas, err := core.NewSimMeasurer(b, devsim.MustLookup(devsim.IntelI7), bench.Size{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	space := b.Space()
	var samples []core.Sample
	for _, cfg := range space.Sample(rand.New(rand.NewSource(3)), 200) {
		if secs, err := meas.Measure(context.Background(), cfg); err == nil {
			samples = append(samples, core.Sample{Config: cfg, Seconds: secs})
		}
	}
	mc := core.DefaultModelConfig(3)
	mc.Ensemble.Train.Epochs = 5
	m, err := core.TrainModel(space, samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(storage.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "raycasting", Device: devsim.IntelI7}
	if err := reg.Put(key, m); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 1, 2, WithEngine(ann.EngineInt16))
	view, err := m.WithEngine(ann.EngineInt16)
	if err != nil {
		t.Fatal(err)
	}
	idxs := space.SampleIndices(rand.New(rand.NewSource(5)), 1024)
	scratch := view.NewBatchScratch()
	preds := make([]float64, 0, 16)
	i := 0
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"Server.Predict", 2, func() {
			req := PredictRequest{Benchmark: key.Benchmark, Device: key.Device, HasIndex: true, Index: idxs[i%len(idxs)]}
			if _, err := srv.Predict(&req); err != nil {
				t.Fatal(err)
			}
		}},
		{"Server.PredictBatch/16", 3, func() {
			lo := (i * 16) % len(idxs)
			req := PredictBatchRequest{Benchmark: key.Benchmark, Device: key.Device, Indices: idxs[lo : lo+16]}
			if _, err := srv.PredictBatch(&req); err != nil {
				t.Fatal(err)
			}
		}},
		{"PredictIndices/16", 0, func() {
			lo := (i * 16) % len(idxs)
			preds = view.PredictIndices(idxs[lo:lo+16], scratch, preds[:0])
		}},
	} {
		c.run() // builds the serve state and the merged rows
		got := testing.AllocsPerRun(200, func() {
			c.run()
			i++
		})
		if got != c.want {
			t.Errorf("%s: %.2f allocations per call, pinned at %v", c.name, got, c.want)
		}
	}
}
