package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ann"
	"repro/internal/devsim"
	"repro/internal/tuning"
)

// TestGoldenV4ModelBitIdentical pins the arena layout itself: the
// committed artifact must load bit-identically — through both the
// copy (reader) and zero-copy (mmap) paths — AND be byte-identical to
// what Save emits for the same model, so the writer cannot drift
// silently.
func TestGoldenV4ModelBitIdentical(t *testing.T) {
	modelPath := filepath.Join("testdata", "golden_v4.mlt")
	predPath := filepath.Join("testdata", "golden_v4_predictions.json")

	if *updateGolden {
		model := goldenPortableModel(t)
		if err := model.SaveFile(modelPath); err != nil {
			t.Fatal(err)
		}
		writeGoldenPredictions(t, predPath, goldenBoundPredictions(t, model))
	}

	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatalf("golden model missing (regenerate with -update): %v", err)
	}
	nl := bytes.IndexByte(raw, '\n')
	var hdr struct {
		Version int             `json:"version"`
		Schema  json.RawMessage `json:"schema"`
	}
	if err := json.Unmarshal(raw[:nl], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 4 || hdr.Schema == nil {
		t.Fatalf("golden file is not version 4 with schema: version=%d", hdr.Version)
	}
	if (nl+1)%binAlign4 != 0 {
		t.Fatalf("v4 body starts at file offset %d, want a multiple of %d", nl+1, binAlign4)
	}
	if !bytes.HasPrefix(raw[nl+1:], binMagic4[:]) {
		t.Fatalf("v4 body does not start with the arena magic: %q", raw[nl+1:nl+9])
	}

	// Copy path: the plain reader.
	model, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if model.WeightFormat() != 4 {
		t.Fatalf("WeightFormat() = %d, want 4", model.WeightFormat())
	}
	preds := readGoldenPredictions(t, predPath)
	checkGoldenPredictions(t, model, preds)

	// Zero-copy path: the memory mapping. Predictions must match bit for
	// bit and, on mmap platforms, actually serve out of the mapping.
	mapped, err := LoadModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.arena == nil {
		t.Fatal("v4 LoadModelFile did not retain the arena")
	}
	if runtime.GOOS == "linux" && !mapped.arena.Mapped() {
		t.Fatal("v4 arena is not memory-mapped on linux")
	}
	if mapped.q16 == nil || mapped.q8 == nil {
		t.Fatalf("v4 load did not prebuild the engine tables (q16=%v q8=%v)", mapped.q16 != nil, mapped.q8 != nil)
	}
	checkGoldenPredictions(t, mapped, preds)
	for _, name := range ann.EngineNames() {
		if _, err := mapped.WithEngine(name); err != nil {
			t.Fatalf("WithEngine(%q) on the mapped model: %v", name, err)
		}
	}

	// Byte-stability: re-saving either loaded model reproduces the
	// artifact exactly.
	for _, m := range []*Model{model, mapped} {
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Fatal("re-saved v4 model differs from the committed golden bytes")
		}
	}
}

// TestV4EngineTablesMatchQuantisation pins the core claim of the arena:
// the engines decoded from a v4 file are bit-identical — predictions
// and bounds — to quantising the loaded ensemble from scratch.
func TestV4EngineTablesMatchQuantisation(t *testing.T) {
	model := goldenPortableModel(t)
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelBytes(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.q16 == nil || loaded.q8 == nil {
		t.Fatal("v4 image did not carry engine tables")
	}
	fresh16, err := ann.QuantizeEnsemble(loaded.ensemble)
	if err != nil {
		t.Fatal(err)
	}
	fresh8, err := ann.Quantize8Ensemble(loaded.ensemble)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.q16.ErrorBound() != fresh16.ErrorBound() || loaded.q8.ErrorBound() != fresh8.ErrorBound() {
		t.Fatal("decoded engine bounds differ from fresh quantisation")
	}
	rng := rand.New(rand.NewSource(3))
	dim := loaded.q16.InputDim()
	const count = 32
	xs := make([]float64, dim*count)
	for i := range xs {
		xs[i] = ann.QuantInputLo + rng.Float64()*(ann.QuantInputHi-ann.QuantInputLo)
	}
	for _, pair := range []struct {
		name       string
		dec, fresh ann.Engine
	}{{"int16", loaded.q16, fresh16}, {"int8", loaded.q8, fresh8}} {
		a := make([]float64, count)
		b := make([]float64, count)
		pair.dec.PredictBatch(xs, count, pair.dec.NewScratch(count), a)
		pair.fresh.PredictBatch(xs, count, pair.fresh.NewScratch(count), b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s sample %d: decoded %g != fresh %g", pair.name, i, a[i], b[i])
			}
		}
	}
}

// FuzzModelV4Codec feeds mutated v4 images to LoadModelBytes:
// truncation and corruption must produce errors, never panics, and any
// input that does load must predict (bound to a device when portable)
// and re-save deterministically.
func FuzzModelV4Codec(f *testing.F) {
	space := tuning.NewSpace("fz4", tuning.Pow2Param("wg", 1, 8), tuning.BoolParam("v"))
	var samples []Sample
	for idx := int64(0); idx < space.Size(); idx++ {
		samples = append(samples, Sample{Config: space.At(idx), Seconds: 1e-3 + 1e-4*float64(idx)})
	}
	cfg := DefaultModelConfig(5)
	cfg.Ensemble.K = 2
	cfg.Ensemble.Hidden = 3
	cfg.Ensemble.Train.Epochs = 10
	model, err := TrainModel(space, samples, nil, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := model.Save(&valid); err != nil {
		f.Fatal(err)
	}

	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add(valid.Bytes()[:len(valid.Bytes())-3])
	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)
	// The portable golden artifact with its device block renamed to an
	// input block: same feature width, so only the schema check can
	// refuse it.
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v4.mlt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Replace(golden, []byte(`"device":`), []byte(`"input": `), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModelBytes(data, nil)
		if err != nil {
			return // rejecting is fine; not panicking is the property
		}
		served := m
		if m.Portable() {
			desc := devsim.MustLookup(devsim.IntelI7).Descriptor()
			if served, err = m.WithDevice(tuning.DeviceVector(&desc, nil)); err != nil {
				t.Fatalf("loaded portable model fails to bind: %v", err)
			}
		}
		if served.Space().Size() > 0 {
			served.Predict(served.Space().At(0), served.NewScratch())
		}
		var once, twice bytes.Buffer
		if err := m.Save(&once); err != nil {
			t.Fatalf("loaded model fails to save: %v", err)
		}
		if err := m.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Save is not deterministic")
		}
	})
}

// benchInstallModel builds a synthetic model with the given ensemble
// size directly from state — no training — so the install benchmark can
// scale model size freely.
func benchInstallModel(b *testing.B, members, hidden int) *Model {
	b.Helper()
	space := tuning.NewSpace("inst", tuning.Pow2Param("wg", 1, 64), tuning.Pow2Param("wi", 1, 16))
	schema := tuning.ParamSchema(space)
	dim := schema.Dim()
	rng := rand.New(rand.NewSource(41))
	nets := make([]ann.NetworkState, members)
	for i := range nets {
		n := ann.MustNew(rng, []int{dim, hidden, 1}, ann.Sigmoid, ann.Linear)
		nets[i] = n.State()
	}
	ensemble, err := ann.EnsembleFromState(ann.EnsembleState{Nets: nets})
	if err != nil {
		b.Fatal(err)
	}
	return &Model{
		space:    space,
		schema:   schema,
		ensemble: ensemble,
		scaler:   ann.TargetScaler{Mean: -5, Std: 1},
		logT:     true,
		engine:   ann.Float64Engine{E: ensemble},
	}
}

// BenchmarkModelInstall measures install-to-servable latency per
// persistence version. The v3 arm loads the committed golden_v3.mlt
// (Save no longer writes v3) through the copy-decode path, every float
// copied. The v4 arms save synthetic models of two sizes: v4 install
// stays near-flat as the model grows — the mmap open and section walk
// touch metadata only, and weight pages fault in lazily as predictions
// first use them (that deferral is the point: replica installs stop
// paying for model size up front).
func BenchmarkModelInstall(b *testing.B) {
	type arm struct {
		name    string
		path    string
		members int
	}
	// golden_v3.mlt holds the 2-member portable golden model.
	arms := []arm{{"v3/golden", filepath.Join("testdata", "golden_v3.mlt"), 2}}
	dir := b.TempDir()
	for _, size := range []struct {
		name            string
		members, hidden int
	}{
		{"small", 3, 16},
		{"large", 11, 256},
	} {
		path := filepath.Join(dir, size.name+".mlt")
		if err := benchInstallModel(b, size.members, size.hidden).SaveFile(path); err != nil {
			b.Fatal(err)
		}
		arms = append(arms, arm{"v4/" + size.name, path, size.members})
	}
	for _, a := range arms {
		fi, err := os.Stat(a.path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(a.name, func(b *testing.B) {
			b.ReportMetric(float64(fi.Size()), "file-bytes")
			for i := 0; i < b.N; i++ {
				m, err := LoadModelFile(a.path)
				if err != nil {
					b.Fatal(err)
				}
				if m.ensemble.Size() != a.members {
					b.Fatal("wrong model")
				}
			}
		})
	}
}
