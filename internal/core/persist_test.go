package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/devsim"
	"repro/internal/tuning"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// goldenSpace is the fixed space of the golden v1 model. Its shape mixes
// pow2 and bool parameters like the real benchmarks.
func goldenSpace() *tuning.Space {
	return tuning.NewSpace("golden",
		tuning.Pow2Param("wg", 1, 64),
		tuning.Pow2Param("tile", 1, 8),
		tuning.BoolParam("vec"),
	)
}

// goldenModel trains the deterministic model the golden files pin: a
// small ensemble on synthetic times that depend smoothly on the
// configuration.
func goldenModel(t *testing.T) *Model {
	t.Helper()
	space := goldenSpace()
	rng := rand.New(rand.NewSource(17))
	var samples []Sample
	for _, cfg := range space.Sample(rng, 40) {
		secs := 1e-3 * (1 + 0.3*math.Log2(float64(cfg.Value("wg"))) +
			0.1*float64(cfg.Value("tile")) + 0.2*float64(cfg.Value("vec")))
		samples = append(samples, Sample{Config: cfg, Seconds: secs})
	}
	cfg := DefaultModelConfig(17)
	cfg.Ensemble.K = 3
	cfg.Ensemble.Hidden = 6
	cfg.Ensemble.Train.Epochs = 200
	model, err := TrainModel(space, samples, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// goldenPrediction is one pinned prediction: the configuration's dense
// index and the exact float64 bits of its predicted seconds.
type goldenPrediction struct {
	Index int64  `json:"index"`
	Bits  string `json:"bits"` // hex of math.Float64bits
}

// TestGoldenV1ModelBitIdentical is the persistence-compatibility
// acceptance test: a version-1 model file checked into testdata must
// keep loading under the schema-aware decoder and predict bit-identically
// to the build that wrote it. Regenerate with `go test -run Golden
// -update ./internal/core` ONLY alongside a deliberate format bump.
func TestGoldenV1ModelBitIdentical(t *testing.T) {
	modelPath := filepath.Join("testdata", "golden_v1.mlt")
	predPath := filepath.Join("testdata", "golden_v1_predictions.json")

	if *updateGolden {
		model := goldenModel(t)
		if model.Portable() {
			t.Fatal("golden model must be parameter-only (version 1)")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		// Save writes the current version; the v1 golden pins the legacy
		// layout, so it is written by the test-local legacy writer.
		var legacy bytes.Buffer
		if err := saveLegacyModel(&legacy, model, 1); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelPath, legacy.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		space := model.Space()
		scratch := model.NewScratch()
		var preds []goldenPrediction
		for idx := int64(0); idx < space.Size(); idx += 7 {
			secs := model.Predict(space.At(idx), scratch)
			preds = append(preds, goldenPrediction{
				Index: idx, Bits: strconv.FormatUint(math.Float64bits(secs), 16)})
		}
		buf, err := json.MarshalIndent(preds, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(predPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden files regenerated (%d predictions)", len(preds))
	}

	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatalf("golden model missing (regenerate with -update): %v", err)
	}
	// The artifact on disk must really be a version-1 header: this test
	// guards the old format, not whatever Save currently emits.
	header := raw[:bytes.IndexByte(raw, '\n')]
	var hdr struct {
		Version int             `json:"version"`
		Schema  json.RawMessage `json:"schema"`
	}
	if err := json.Unmarshal(header, &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 1 || hdr.Schema != nil {
		t.Fatalf("golden file is not version 1 without schema: %s", header)
	}

	model, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if model.Portable() {
		t.Fatal("v1 model decoded as portable")
	}
	if got, want := model.Schema().Dim(), model.Schema().ParamDim(); got != want {
		t.Fatalf("v1 schema dim %d, param dim %d", got, want)
	}

	var preds []goldenPrediction
	buf, err := os.ReadFile(predPath)
	if err != nil {
		t.Fatalf("golden predictions missing (regenerate with -update): %v", err)
	}
	if err := json.Unmarshal(buf, &preds); err != nil {
		t.Fatal(err)
	}
	if len(preds) == 0 {
		t.Fatal("no golden predictions")
	}
	scratch := model.NewScratch()
	space := model.Space()
	for _, p := range preds {
		wantBits, err := strconv.ParseUint(p.Bits, 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		got := model.Predict(space.At(p.Index), scratch)
		if math.Float64bits(got) != wantBits {
			t.Errorf("index %d: predicted %v (bits %x), golden bits %s",
				p.Index, got, math.Float64bits(got), p.Bits)
		}
	}
	// The batched engine must agree with the scalar golden path too.
	batch := model.PredictIndices([]int64{preds[0].Index}, model.NewBatchScratch(), nil)
	if wantBits, _ := strconv.ParseUint(preds[0].Bits, 16, 64); math.Float64bits(batch[0]) != wantBits {
		t.Errorf("batched prediction diverges from golden: %v", batch[0])
	}
}

// twoDeviceSamples builds a deterministic pooled training set over two
// catalog devices with device-dependent synthetic times.
func twoDeviceSamples(space *tuning.Space, n int) []Sample {
	devA := devsim.MustLookup(devsim.IntelI7).Descriptor()
	devB := devsim.MustLookup(devsim.AMD7970).Descriptor()
	vecA := tuning.DeviceVector(&devA, nil)
	vecB := tuning.DeviceVector(&devB, nil)
	rng := rand.New(rand.NewSource(23))
	var samples []Sample
	for i, cfg := range space.Sample(rng, n) {
		base := 1e-3 * (1 + 0.2*math.Log2(float64(cfg.Value("wg"))) + 0.1*float64(cfg.Value("vec")))
		if i%2 == 0 {
			samples = append(samples, Sample{Config: cfg, Seconds: base, Device: vecA})
		} else {
			samples = append(samples, Sample{Config: cfg, Seconds: base * 2.5, Device: vecB})
		}
	}
	return samples
}

func portableTestConfig(seed int64) ModelConfig {
	cfg := DefaultModelConfig(seed)
	cfg.Ensemble.K = 2
	cfg.Ensemble.Hidden = 6
	cfg.Ensemble.Train.Epochs = 150
	cfg.DeviceFeatures = true
	return cfg
}

// TestPortableModelRoundTrip trains a device-featurised model, binds it
// to two devices, and verifies the version-2 persistence reloads to
// bit-identical predictions for both bindings.
func TestPortableModelRoundTrip(t *testing.T) {
	space := goldenSpace()
	samples := twoDeviceSamples(space, 60)
	model, err := TrainModel(space, samples, nil, portableTestConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	if !model.Portable() || model.Bound() {
		t.Fatalf("portable=%v bound=%v, want portable unbound", model.Portable(), model.Bound())
	}

	devA := devsim.MustLookup(devsim.IntelI7).Descriptor()
	devC := devsim.MustLookup(devsim.NvidiaK40).Descriptor() // unseen in training
	vecA := tuning.DeviceVector(&devA, nil)
	vecC := tuning.DeviceVector(&devC, nil)
	boundA, err := model.WithDevice(vecA)
	if err != nil {
		t.Fatal(err)
	}
	boundC, err := model.WithDevice(vecC)
	if err != nil {
		t.Fatal(err)
	}

	// Distinct devices must be able to produce distinct predictions.
	sA, sC := boundA.NewScratch(), boundC.NewScratch()
	differs := false
	for idx := int64(0); idx < space.Size(); idx += 5 {
		if boundA.Predict(space.At(idx), sA) != boundC.Predict(space.At(idx), sC) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("two device bindings predict identically everywhere")
	}

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"format":"mltune-model","version":4`) {
		t.Errorf("portable model did not save as version 4: %.90q", buf.String())
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], `"schema"`) {
		t.Error("v4 header misses the schema record")
	}
	loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Portable() || loaded.Bound() {
		t.Fatal("reloaded portable model lost its schema or arrived bound")
	}
	reboundA, err := loaded.WithDevice(vecA)
	if err != nil {
		t.Fatal(err)
	}
	rs := reboundA.NewScratch()
	for idx := int64(0); idx < space.Size(); idx += 3 {
		want := boundA.Predict(space.At(idx), sA)
		got := reboundA.Predict(loaded.Space().At(idx), rs)
		if want != got {
			t.Fatalf("prediction %d differs after reload: %v vs %v", idx, want, got)
		}
	}

	// Saving the bound view persists the portable model, byte-identical
	// to saving the unbound parent.
	var bufBound bytes.Buffer
	if err := boundA.Save(&bufBound); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), bufBound.Bytes()) {
		t.Error("saving a bound view differs from saving the portable parent")
	}
}

func TestPortableModelUnboundPredictPanics(t *testing.T) {
	space := goldenSpace()
	model, err := TrainModel(space, twoDeviceSamples(space, 40), nil, portableTestConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("predicting with an unbound portable model did not panic")
		}
	}()
	model.Predict(space.At(0), model.NewScratch())
}

func TestWithDeviceValidation(t *testing.T) {
	space := goldenSpace()
	plain, err := TrainModel(space, []Sample{
		{Config: space.At(0), Seconds: 0.1},
		{Config: space.At(1), Seconds: 0.2},
	}, nil, func() ModelConfig {
		cfg := portableTestConfig(5)
		cfg.DeviceFeatures = false
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.WithDevice(make([]float64, len(tuning.DeviceFieldNames()))); err == nil {
		t.Error("binding a parameter-only model did not fail")
	}

	portable, err := TrainModel(space, twoDeviceSamples(space, 40), nil, portableTestConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := portable.WithDevice([]float64{1, 2}); err == nil {
		t.Error("binding with a wrong-width vector did not fail")
	}
}

func TestTrainModelDeviceFeatureValidation(t *testing.T) {
	space := goldenSpace()
	vec := make([]float64, len(tuning.DeviceFieldNames()))

	// Device-featurised config, sample without a vector.
	cfg := portableTestConfig(5)
	if _, err := TrainModel(space, []Sample{{Config: space.At(0), Seconds: 0.1}}, nil, cfg); err == nil {
		t.Error("missing device vector accepted")
	}
	// Parameter-only config, sample with a vector.
	cfg.DeviceFeatures = false
	if _, err := TrainModel(space, []Sample{{Config: space.At(0), Seconds: 0.1, Device: vec}}, nil, cfg); err == nil {
		t.Error("stray device vector accepted")
	}
	// InvalidPenalty cannot combine with pooling.
	cfg.DeviceFeatures = true
	cfg.InvalidPenalty = 3
	if _, err := TrainModel(space, []Sample{{Config: space.At(0), Seconds: 0.1, Device: vec}}, nil, cfg); err == nil {
		t.Error("InvalidPenalty with DeviceFeatures accepted")
	}
}

// TestLoadModelUnsupportedVersionTyped pins the decoder-table contract:
// future versions fail with the typed error naming both versions.
func TestLoadModelUnsupportedVersionTyped(t *testing.T) {
	in := `{"format":"mltune-model","version":5,"space":{"name":"x","params":[{"name":"a","values":[1,2]}]}}` + "\n"
	_, err := LoadModel(strings.NewReader(in))
	var uv *UnsupportedVersionError
	if !errors.As(err, &uv) {
		t.Fatalf("error %v is not *UnsupportedVersionError", err)
	}
	if uv.Version != 5 || uv.Max != 4 {
		t.Fatalf("error fields %+v", uv)
	}
	for _, frag := range []string{"5", "4"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("message %q does not name version %s", err, frag)
		}
	}
}

// TestLoadModelV2SchemaMismatch guards against silently loading a
// portable model whose device features were derived differently.
func TestLoadModelV2SchemaMismatch(t *testing.T) {
	names := tuning.DeviceFieldNames()
	wrong := make([]string, len(names))
	copy(wrong, names)
	wrong[0] = "not_a_field"
	mk := func(device []string) string {
		hdr := map[string]any{
			"format": "mltune-model", "version": 2,
			"space":  map[string]any{"name": "x", "params": []map[string]any{{"name": "a", "values": []int{1, 2}}}},
			"schema": map[string]any{"device": device},
		}
		buf, _ := json.Marshal(hdr)
		return string(buf) + "\n"
	}
	if _, err := LoadModel(strings.NewReader(mk(wrong))); err == nil ||
		!strings.Contains(err.Error(), "device feature") {
		t.Errorf("renamed device feature accepted or wrong error: %v", err)
	}
	if _, err := LoadModel(strings.NewReader(mk(names[:3]))); err == nil ||
		!strings.Contains(err.Error(), "device features") {
		t.Errorf("truncated device block accepted or wrong error: %v", err)
	}
}

// TestPortableTopMRespectsBinding: the full-space sweep runs on the
// bound view and different bindings may rank differently; the sweep on
// an unbound portable model panics instead of silently misranking.
func TestPortableTopMRespectsBinding(t *testing.T) {
	space := goldenSpace()
	model, err := TrainModel(space, twoDeviceSamples(space, 60), nil, portableTestConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("TopM on an unbound portable model did not panic")
			}
		}()
		model.TopM(3)
	}()

	devA := devsim.MustLookup(devsim.IntelI7).Descriptor()
	vecA := tuning.DeviceVector(&devA, nil)
	bound, err := model.WithDevice(vecA)
	if err != nil {
		t.Fatal(err)
	}
	top := bound.TopM(5)
	if len(top) != 5 {
		t.Fatalf("TopM returned %d", len(top))
	}
	// The sweep must agree with scalar prediction on the bound view.
	scratch := bound.NewScratch()
	for _, p := range top {
		if got := bound.Predict(space.At(p.Index), scratch); got != p.Seconds {
			t.Fatalf("TopM %d: sweep %v, scalar %v", p.Index, p.Seconds, got)
		}
	}
}
