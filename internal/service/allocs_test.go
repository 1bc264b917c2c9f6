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
	"repro/internal/tuning"
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

// TestInlineDescriptorPredictBytes bounds the memory one inline-descriptor
// prediction allocates. Such a request binds the portable model afresh
// and predicts through a throwaway scratch, so the scratch's block
// buffers must be sized to the request: one configuration of a portable
// convolution model of the paper's shape (11 members × 30 hidden), not a
// 256-configuration block per member. Pinned on amd64 without -race,
// like TestServePathAllocs.
func TestInlineDescriptorPredictBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" || raceEnabled {
		t.Skip("allocation figures are pinned on amd64 without -race")
	}
	b := bench.MustLookup("convolution")
	space := b.Space()
	var samples []core.Sample
	for i, name := range []string{devsim.IntelI7, devsim.NvidiaK40} {
		dev := devsim.MustLookup(name)
		meas, err := core.NewSimMeasurer(b, dev, bench.Size{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		desc := dev.Descriptor()
		vec := tuning.DeviceVector(&desc, nil)
		for _, cfg := range space.Sample(rand.New(rand.NewSource(int64(7+i))), 100) {
			if secs, err := meas.Measure(context.Background(), cfg); err == nil {
				samples = append(samples, core.Sample{Config: cfg, Seconds: secs, Device: vec})
			}
		}
	}
	mc := core.DefaultModelConfig(7) // paper defaults: k=11, hidden=30
	mc.Ensemble.Train.Epochs = 5
	mc.DeviceFeatures = true
	m, err := core.TrainModel(space, samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(storage.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Put(ModelKey{Benchmark: "convolution", Device: PortableDevice}, m); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 1, 2, WithEngine(ann.EngineInt16))
	desc := devsim.MustLookup(devsim.NvidiaGTX980).Descriptor()
	desc.Name = "Hypothetical GPU X"
	desc.ComputeUnits = 24
	predict := func(idx int64) {
		req := PredictRequest{Benchmark: "convolution", Descriptor: &desc, HasIndex: true, Index: idx}
		if _, err := srv.Predict(&req); err != nil {
			t.Fatal(err)
		}
	}
	predict(0)
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < calls; i++ {
		predict(i * 613 % space.Size())
	}
	runtime.ReadMemStats(&after)
	const limit = 32 << 10
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > limit {
		t.Errorf("inline-descriptor Predict allocates %d bytes per call, bound %d", perCall, limit)
	} else {
		t.Logf("inline-descriptor Predict allocates %d bytes per call", perCall)
	}
}
