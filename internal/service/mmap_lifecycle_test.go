package service

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/mmapx"
	"repro/internal/storage"
	"repro/internal/tuning"
)

// TestMmapSwapLifecycle hammers the zero-copy model lifecycle under
// the race detector: predicts stay in flight while the served model is
// swapped (Put) and the registry's mapped cache is dropped (Reload),
// so every iteration races an old mapping's retirement against
// readers still scoring out of it. The properties pinned:
//
//   - no use-after-unmap: a mapping is closed only by the finalizer of
//     a model no reader can reach any more, so the hammer must never
//     fault (a violation crashes the test process);
//   - no leaked mappings: once the mapped models are unreachable, GC
//     must return mmapx.Live() to its baseline — nothing in the
//     serve cache, registry, or scratch pools may pin an arena whose
//     model was replaced.
func TestMmapSwapLifecycle(t *testing.T) {
	if testing.Short() && !raceEnabled {
		// The hammer earns its seconds under -race; plain -short runs get
		// coverage of the same paths from the functional tests.
		t.Skip("skipping mmap lifecycle hammer in -short without -race")
	}
	baseline := mmapx.Live()

	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	models := []*core.Model{trainTinyModel(t, 21), trainTinyModel(t, 22)}
	if err := reg.Put(key, models[0]); err != nil {
		t.Fatal(err)
	}
	// The int8 engine exercises the most state per model: int8 tables
	// quantised from the arena-backed weights, plus the int16 screen.
	srv := newTestServer(t, reg, 1, 4, WithEngine(ann.EngineInt8))

	stop := make(chan struct{})
	errs := make(chan error, 8)
	const readers = 4
	for g := 0; g < readers; g++ {
		go func(g int) {
			idx := int64(g)
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				req := PredictRequest{Benchmark: "convolution", Device: devsim.IntelI7,
					HasIndex: true, Index: idx % 64}
				if _, err := srv.Predict(&req); err != nil {
					errs <- err
					return
				}
				idx += 3
			}
		}(g)
	}

	// Swap loop: each round first drops every cached model (the next
	// predict then maps the artifact fresh from disk — the path a serve
	// replica's install takes), then replaces the artifact under the
	// readers' feet.
	deadline := time.Now().Add(3 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		if _, err := srv.ReloadModels(); err != nil {
			t.Error(err)
			break
		}
		err := srv.swapModel(key, func() error { return reg.Put(key, models[i%len(models)]) })
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Fatalf("reader failed mid-swap: %v", err)
		}
	}

	// Retirement: the last swap left a heap-trained model in every
	// cache, so every mapped model is now unreachable and GC must close
	// their arenas. Finalizers need GC cycles to run, so poll.
	for wait := 0; mmapx.Live() > baseline && wait < 100; wait++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := mmapx.Live(); got > baseline {
		t.Fatalf("%d mappings leaked after the swap hammer (baseline %d, live %d)", got-baseline, baseline, got)
	}
}

// TestMapperBackendServesMapped pins that a localfs-backed registry
// actually takes the zero-copy path: a v4 artifact written by Put and
// re-read after a reload serves out of a memory mapping on platforms
// that support it, and the mapping is accounted in mmapx.Live.
func TestMapperBackendServesMapped(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Backend().(storage.Mapper); !ok {
		t.Fatal("localfs backend does not implement storage.Mapper")
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := reg.Put(key, trainTinyModel(t, 23)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil { // drop the Put-cached heap model
		t.Fatal(err)
	}
	before := mmapx.Live()
	m, err := reg.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if m.WeightFormat() != 4 {
		t.Fatalf("freshly trained model persisted as v%d, want v4", m.WeightFormat())
	}
	if runtime.GOOS == "linux" && mmapx.Live() != before+1 {
		t.Fatalf("mapped load did not register a live mapping (before %d, after %d)", before, mmapx.Live())
	}
}

// trainTinyPortable fits a fast device-featurised convolution model to
// simulated measurements from two catalog devices.
func trainTinyPortable(t *testing.T, seed int64) *core.Model {
	t.Helper()
	b := bench.MustLookup("convolution")
	rng := rand.New(rand.NewSource(seed))
	var samples []core.Sample
	for _, name := range []string{devsim.IntelI7, devsim.NvidiaK40} {
		dev := devsim.MustLookup(name)
		m, err := core.NewSimMeasurer(b, dev, bench.Size{}, 3)
		if err != nil {
			t.Fatal(err)
		}
		desc := dev.Descriptor()
		vec := tuning.DeviceVector(&desc, nil)
		for _, cfg := range b.Space().Sample(rng, 40) {
			if secs, err := m.Measure(context.Background(), cfg); err == nil {
				samples = append(samples, core.Sample{Config: cfg, Seconds: secs, Device: vec})
			}
		}
	}
	mc := core.DefaultModelConfig(seed)
	mc.Ensemble.K = 2
	mc.Ensemble.Hidden = 6
	mc.Ensemble.Train.Epochs = 100
	mc.DeviceFeatures = true
	model, err := core.TrainModel(b.Space(), samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// settledMappings runs GC until mmapx.Live stops falling, so mappings
// other tests left unreachable are closed before a test takes its
// baseline.
func settledMappings() int {
	last := mmapx.Live()
	for i := 0; i < 50; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		now := mmapx.Live()
		if now == last {
			return now
		}
		last = now
	}
	return last
}

// TestSlotSwapReleasesServeState pins that a registry slot owns its
// model's read-path state, so replacing the slot releases all of it:
//
//   - a portable model bound for a requesting device is released by the
//     swap of its <bench>@* slot alone — no further request for that
//     device is needed before GC can close the replaced mapping;
//   - serve state a request builds on a slot it fetched before a swap
//     stays on that stale slot: the registry's current slot cannot reach
//     it, so it lives only as long as the request;
//   - readers binding devices on a portable slot race its swaps safely
//     (run under -race).
func TestSlotSwapReleasesServeState(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pkey := ModelKey{Benchmark: "convolution", Device: PortableDevice}
	portable := []*core.Model{trainTinyPortable(t, 31), trainTinyPortable(t, 32)}
	if err := reg.Put(pkey, portable[0]); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 1, 2)
	if _, err := srv.ReloadModels(); err != nil { // serve @* from a mapping
		t.Fatal(err)
	}
	baseline := settledMappings()
	req := PredictRequest{Benchmark: "convolution", Device: devsim.AMD7970, HasIndex: true, Index: 5}
	if resp, err := srv.Predict(&req); err != nil || resp.Resolution != resolutionPortable {
		t.Fatalf("portable predict: %+v, %v", resp, err)
	}
	if runtime.GOOS == "linux" && mmapx.Live() != baseline+1 {
		t.Fatalf("portable load did not map its artifact (baseline %d, live %d)", baseline, mmapx.Live())
	}

	if err := srv.swapModel(pkey, func() error { return reg.Put(pkey, portable[1]) }); err != nil {
		t.Fatal(err)
	}
	for wait := 0; mmapx.Live() > baseline && wait < 100; wait++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := mmapx.Live(); got > baseline {
		t.Fatalf("the replaced portable model's mapping is still live after the swap (baseline %d, live %d)", baseline, got)
	}

	// A request that fetched the slots before a swap builds its state
	// after it.
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := reg.Put(key, trainTinyModel(t, 33)); err != nil {
		t.Fatal(err)
	}
	stale, err := reg.slot(key)
	if err != nil {
		t.Fatal(err)
	}
	staleP, err := reg.slot(pkey)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.swapModel(key, func() error { return reg.Put(key, trainTinyModel(t, 34)) }); err != nil {
		t.Fatal(err)
	}
	if err := srv.swapModel(pkey, func() error { return reg.Put(pkey, portable[0]) }); err != nil {
		t.Fatal(err)
	}
	st := srv.slotState(key, stale)
	vec, err := catalogVector(devsim.AMD7970)
	if err != nil {
		t.Fatal(err)
	}
	bkey := ModelKey{Benchmark: "convolution", Device: devsim.AMD7970}
	bst, err := srv.boundState(bkey, staleP, vec)
	if err != nil {
		t.Fatal(err)
	}

	cur, err := reg.slot(key)
	if err != nil {
		t.Fatal(err)
	}
	curP, err := reg.slot(pkey)
	if err != nil {
		t.Fatal(err)
	}
	if cur == stale || curP == staleP {
		t.Fatal("the swaps did not replace the slots")
	}
	if cur.state.Load() == st {
		t.Error("serve state built on a stale slot is reachable from the current slot")
	}
	curP.mu.Lock()
	for dev, b := range curP.binds {
		if b == bst {
			t.Errorf("a binding built on a stale portable slot is reachable from the current slot (device %s)", dev)
		}
	}
	curP.mu.Unlock()

	// The current slots serve the new models, with state of their own.
	if _, err := srv.Predict(&req); err != nil {
		t.Fatal(err)
	}
	req.Device = devsim.IntelI7
	if _, err := srv.Predict(&req); err != nil {
		t.Fatal(err)
	}
	if got := cur.state.Load(); got == nil || got == st || got.model.Ensemble() == st.model.Ensemble() {
		t.Error("the current slot does not serve its own model")
	}
	curP.mu.Lock()
	got := curP.binds[devsim.AMD7970]
	curP.mu.Unlock()
	if got == nil || got == bst || got.model.Ensemble() == bst.model.Ensemble() {
		t.Error("the current portable slot does not serve its own binding")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g, dev := range []string{devsim.AMD7970, devsim.NvidiaK40, devsim.AMD7970} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(g); ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				r := PredictRequest{Benchmark: "convolution", Device: dev, HasIndex: true, Index: i % 64}
				if _, err := srv.Predict(&r); err != nil {
					t.Errorf("reader failed mid-swap: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if err := srv.swapModel(pkey, func() error { return reg.Put(pkey, portable[i%2]) }); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
