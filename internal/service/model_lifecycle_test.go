package service

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/tuning"
)

// TestMmapSwapLifecycle hammers the model lifecycle under the race
// detector: predicts stay in flight while the served model is swapped
// (Put) and the registry's cached models are dropped (Reload), so every
// iteration races an old model's retirement against readers still
// scoring with it. No reader may fail, and the race detector must see
// no unsynchronised access to a slot, its serve state or a model.
func TestMmapSwapLifecycle(t *testing.T) {
	if testing.Short() && !raceEnabled {
		// The hammer earns its seconds under -race; plain -short runs get
		// coverage of the same paths from the functional tests.
		t.Skip("skipping model lifecycle hammer in -short without -race")
	}

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
	// quantised from the loaded weights, plus the int16 screen.
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
	// predict then loads the artifact fresh from disk), then replaces
	// the artifact under the readers' feet.
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

// watchRelease sets finalizers on m and on its ensemble, and returns a
// func that runs GC until both have run: nothing reaches the model or
// its weights any more. It reports false if that does not happen within
// about a second. m must not have a finalizer already.
func watchRelease(m *core.Model) func() bool {
	var released atomic.Int32
	runtime.SetFinalizer(m, func(*core.Model) { released.Add(1) })
	runtime.SetFinalizer(m.Ensemble(), func(*ann.Ensemble) { released.Add(1) })
	return func() bool {
		for wait := 0; released.Load() < 2 && wait < 100; wait++ {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		return released.Load() == 2
	}
}

// TestSlotSwapReleasesServeState pins that a registry slot owns its
// model's read-path state, so replacing the slot releases all of it:
//
//   - a portable model bound for a requesting device is released by the
//     swap of its <bench>@* slot alone — no further request for that
//     device is needed before GC can collect the replaced model and
//     its weights;
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
	// Serve @* from a model the registry loads from storage, so that
	// nothing in this test holds the model the swap replaces.
	if _, err := srv.ReloadModels(); err != nil {
		t.Fatal(err)
	}
	req := PredictRequest{Benchmark: "convolution", Device: devsim.AMD7970, HasIndex: true, Index: 5}
	if resp, err := srv.Predict(&req); err != nil || resp.Resolution != resolutionPortable {
		t.Fatalf("portable predict: %+v, %v", resp, err)
	}
	loaded, err := reg.Get(pkey)
	if err != nil {
		t.Fatal(err)
	}
	released := watchRelease(loaded)

	if err := srv.swapModel(pkey, func() error { return reg.Put(pkey, portable[1]) }); err != nil {
		t.Fatal(err)
	}
	if !released() {
		t.Fatal("the replaced portable model or its weights are still reachable after the swap")
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

// trainPaperSizedModel fits the paper's model shape (11 members × 30
// hidden neurons, §5.2) to simulated convolution measurements, with few
// epochs: its artifact spans several pages, unlike trainTinyModel's.
func trainPaperSizedModel(t *testing.T, seed int64) *core.Model {
	t.Helper()
	b := bench.MustLookup("convolution")
	m, err := core.NewSimMeasurer(b, devsim.MustLookup(devsim.IntelI7), bench.Size{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var samples []core.Sample
	for _, cfg := range b.Space().Sample(rng, 120) {
		if secs, err := m.Measure(context.Background(), cfg); err == nil {
			samples = append(samples, core.Sample{Config: cfg, Seconds: secs})
		}
	}
	mc := core.DefaultModelConfig(seed)
	mc.Ensemble.K = 11
	mc.Ensemble.Hidden = 30
	mc.Ensemble.Train.Epochs = 5
	model, err := core.TrainModel(b.Space(), samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// modelAnswers is what a served model answers: predictions over a
// stride of the space, and its top 5.
type modelAnswers struct {
	preds []float64
	top   []core.Predicted
}

func answersOf(m *core.Model) modelAnswers {
	var idxs []int64
	for i := int64(0); i < m.Space().Size(); i += 97 {
		idxs = append(idxs, i)
	}
	return modelAnswers{
		preds: m.PredictIndices(idxs, m.NewBatchScratch(), nil),
		top:   m.TopM(5),
	}
}

// sameAnswers reports whether two answer sets are bit-identical.
func sameAnswers(a, b modelAnswers) bool {
	if len(a.preds) != len(b.preds) || len(a.top) != len(b.top) {
		return false
	}
	for i := range a.preds {
		if math.Float64bits(a.preds[i]) != math.Float64bits(b.preds[i]) {
			return false
		}
	}
	for i := range a.top {
		if a.top[i].Index != b.top[i].Index ||
			math.Float64bits(a.top[i].Seconds) != math.Float64bits(b.top[i].Seconds) {
			return false
		}
	}
	return true
}

// TestLoadedModelOwnsItsWeights pins that a loaded model never refers
// back to the bytes it was loaded from. Model files may be dropped into
// a registry directory or copied over in place (cp, or any O_TRUNC
// write); a model the registry already serves must keep answering
// bit-identically when its file is rewritten under it, whether with a
// same-shape model's bytes or with a truncated file. Likewise a buffer
// handed to LoadModelBytes is the caller's again once it returns.
func TestLoadedModelOwnsItsWeights(t *testing.T) {
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	served := trainPaperSizedModel(t, 51)
	var other bytes.Buffer
	if err := trainPaperSizedModel(t, 52).Save(&other); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		rewrite func(orig []byte) []byte
	}{
		{"same-shape model", func([]byte) []byte { return other.Bytes() }},
		{"first half", func(orig []byte) []byte { return orig[:len(orig)/2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg, err := OpenRegistry(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Put(key, served); err != nil {
				t.Fatal(err)
			}
			if err := reg.Reload(); err != nil { // serve the model loaded from its file
				t.Fatal(err)
			}
			m, err := reg.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if m == served || m.WeightFormat() != 4 {
				t.Fatalf("registry did not load the v4 artifact from storage (format %d)", m.WeightFormat())
			}
			want := answersOf(m)

			path := filepath.Join(dir, key.fileName())
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(orig) <= 2*os.Getpagesize() {
				t.Fatalf("artifact is %d bytes; the test needs one spanning several pages", len(orig))
			}
			next := tc.rewrite(orig)
			if len(next) == len(orig) && bytes.Equal(next, orig) {
				t.Fatal("the rewrite does not change the file")
			}
			if err := os.WriteFile(path, next, 0o644); err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(answersOf(m), want) {
				t.Fatal("rewriting the file in place changed the served model's answers")
			}
		})
	}

	t.Run("zeroed load buffer", func(t *testing.T) {
		var buf bytes.Buffer
		if err := served.Save(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		m, err := core.LoadModelBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		want := answersOf(m)
		clear(data)
		if !sameAnswers(answersOf(m), want) {
			t.Fatal("zeroing the buffer passed to LoadModelBytes changed the model's answers")
		}
	})
}
