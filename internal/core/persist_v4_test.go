package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ann"
	"repro/internal/devsim"
	"repro/internal/tuning"
)

// TestGoldenV4ModelBitIdentical pins the arena layout itself: the
// committed artifact must load bit-identically — through both the
// reader and the file loader — AND be byte-identical to
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

	// The file loader: predictions must match bit for bit.
	fromFile, err := LoadModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenPredictions(t, fromFile, preds)
	for _, name := range ann.EngineNames() {
		if _, err := fromFile.WithEngine(name); err != nil {
			t.Fatalf("WithEngine(%q) on the file-loaded model: %v", name, err)
		}
	}

	// Byte-stability: re-saving either loaded model reproduces the
	// artifact exactly.
	for _, m := range []*Model{model, fromFile} {
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Fatal("re-saved v4 model differs from the committed golden bytes")
		}
	}
}

// TestGoldenV4TablesCompat pins the v4 files older writers emitted,
// which carry quantised engine tables (QLUT, Q16T, QNT8) after the
// weights. The artifact is frozen (no -update path): it must keep
// loading to the v4 golden predictions, and re-saving it must give
// exactly its bytes minus the table sections the loader now skips.
func TestGoldenV4TablesCompat(t *testing.T) {
	path := filepath.Join("testdata", "golden_v4_tables.mlt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cuts := sectionBoundaries(t, raw, binAlign4)
	want := append([]byte(nil), raw[:cuts[1]]...)
	var tables []string
	for k := 1; k+2 < len(cuts); k += 2 {
		switch tag := string(raw[cuts[k] : cuts[k]+4]); tag {
		case "QLUT", "Q16T", "QNT8":
			tables = append(tables, tag)
		default:
			want = append(want, raw[cuts[k]:cuts[k+2]]...)
		}
	}
	if len(tables) != 3 {
		t.Fatalf("frozen artifact carries table sections %q, want QLUT, Q16T and QNT8", tables)
	}
	preds := readGoldenPredictions(t, filepath.Join("testdata", "golden_v4_predictions.json"))
	copied, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Model{copied, mapped} {
		if m.WeightFormat() != 4 {
			t.Fatalf("WeightFormat() = %d, want 4", m.WeightFormat())
		}
		checkGoldenPredictions(t, m, preds)
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("re-saved model is %d bytes, want the artifact's %d minus its table sections (%d)",
				out.Len(), len(raw), len(want))
		}
	}
}

// checkInt16FromWeights fails unless m's int16 view has the bound of,
// and predicts bit for bit what, fresh predicts: the int16 engine
// quantised from m's own float64 weights. No content of a model file
// other than its weights may steer the int16 engine or the top-M
// screen built on it.
func checkInt16FromWeights(t testing.TB, m *Model, fresh *ann.QuantizedEnsemble) {
	t.Helper()
	view, err := m.WithEngine(ann.EngineInt16)
	if err != nil {
		t.Fatalf("the quantiser accepts the weights, WithEngine(int16) refuses them: %v", err)
	}
	if got, want := view.EngineErrorBound(), fresh.ErrorBound(); got != want {
		t.Fatalf("int16 view bound %g, quantising the weights gives %g", got, want)
	}
	rng := rand.New(rand.NewSource(3))
	const count = 8
	xs := make([]float64, fresh.InputDim()*count)
	for i := range xs {
		xs[i] = ann.QuantInputLo + rng.Float64()*(ann.QuantInputHi-ann.QuantInputLo)
	}
	got := make([]float64, count)
	want := make([]float64, count)
	eng := view.eng()
	eng.PredictBatch(xs, count, eng.NewScratch(count), got)
	fresh.PredictBatch(xs, count, fresh.NewScratch(count), want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sample %d: int16 view predicts %v, quantising the weights %v", i, got[i], want[i])
		}
	}
}

// TestForeignEngineTables pins that a file's engine tables cannot
// steer the int16 engine or the top-M screen. foreign_tables_v4.mlt is
// trainedTestModel's v4 file with its Q16T and QNT8 payloads replaced
// by those of a same-shape model trained on the opposite objective
// (see CHANGES.md); it is frozen, with no -update path. A loader that
// trusted those tables ranked 20 of 20 top entries wrong on both views.
func TestForeignEngineTables(t *testing.T) {
	m, err := LoadModelFile(filepath.Join("testdata", "foreign_tables_v4.mlt"))
	if err != nil {
		t.Fatal(err)
	}
	const M = 20
	want := bruteTopM(m, M)
	for _, name := range []string{ann.EngineFloat64, ann.EngineInt16} {
		if got := engineView(t, m, name).TopM(M); !samePredicted(got, want) {
			t.Errorf("%s view: TopM(%d) differs from the exhaustive float64 sweep", name, M)
		}
	}
	fresh, err := ann.QuantizeEnsemble(m.Ensemble())
	if err != nil {
		t.Fatal(err)
	}
	checkInt16FromWeights(t, m, fresh)
}

// FuzzModelV4Codec feeds mutated v4 images to LoadModelBytes:
// truncation and corruption must produce errors, never panics, and any
// input that does load must predict (bound to a device when portable)
// and re-save deterministically. When the int16 quantiser accepts its
// weights, its int16 view must be exactly the engine quantised from
// them (checkInt16FromWeights).
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
	// Files with engine tables: honest ones, and foreign ones.
	for _, name := range []string{"golden_v4_tables.mlt", "foreign_tables_v4.mlt"} {
		withTables, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(withTables)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModelBytes(data)
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
		if fresh, err := ann.QuantizeEnsemble(m.Ensemble()); err == nil {
			checkInt16FromWeights(t, m, fresh)
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
// persistence version through LoadModelFile: read the whole file, then
// copy-decode every weight onto the heap. The v3 arm loads the committed
// golden_v3.mlt (Save no longer writes v3). The v4 arms save synthetic
// models of two sizes, so the cost's growth with model size shows: it
// is the file read plus one little-endian pass over the weights.
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
