package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/devsim"
	"repro/internal/tuning"
)

// saveLegacyModel writes m in the retired gob-bodied layout (versions 1
// and 2). Production code only *reads* those versions now; the golden
// tests keep a writer so `-update` can regenerate the compatibility
// artifacts without digging old builds out of history.
func saveLegacyModel(w io.Writer, m *Model, version int) error {
	params := make([]paramHeader, len(m.space.Params()))
	for i, p := range m.space.Params() {
		params[i] = paramHeader{Name: p.Name, Values: append([]int(nil), p.Values...)}
	}
	hdr := modelHeader{
		Format:       modelFormat,
		Version:      version,
		Space:        spaceHeader{Name: m.space.Name(), Params: params},
		LogTransform: m.logT,
		Members:      m.ensemble.Size(),
	}
	if version >= modelVersionV2 && m.schema.TailDim() > 0 {
		hdr.Schema = &schemaHeader{Device: m.schema.DeviceFields()}
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return err
	}
	payload := modelPayload{Scaler: m.scaler, Ensemble: m.ensemble.State()}
	return gob.NewEncoder(w).Encode(&payload)
}

// goldenPortableModel trains the deterministic portable model behind the
// v2, v3 and v4 golden files.
func goldenPortableModel(t *testing.T) *Model {
	t.Helper()
	space := goldenSpace()
	model, err := TrainModel(space, twoDeviceSamples(space, 48), nil, portableTestConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// goldenBoundPredictions samples pinned predictions from the model bound
// to a fixed catalog device.
func goldenBoundPredictions(t *testing.T, m *Model) []goldenPrediction {
	t.Helper()
	desc := devsim.MustLookup(devsim.NvidiaK40).Descriptor()
	bound, err := m.WithDevice(tuning.DeviceVector(&desc, nil))
	if err != nil {
		t.Fatal(err)
	}
	space := m.Space()
	scratch := bound.NewScratch()
	var preds []goldenPrediction
	for idx := int64(0); idx < space.Size(); idx += 7 {
		secs := bound.Predict(space.At(idx), scratch)
		preds = append(preds, goldenPrediction{
			Index: idx, Bits: strconv.FormatUint(math.Float64bits(secs), 16)})
	}
	return preds
}

func checkGoldenPredictions(t *testing.T, m *Model, preds []goldenPrediction) {
	t.Helper()
	if len(preds) == 0 {
		t.Fatal("no golden predictions")
	}
	desc := devsim.MustLookup(devsim.NvidiaK40).Descriptor()
	bound, err := m.WithDevice(tuning.DeviceVector(&desc, nil))
	if err != nil {
		t.Fatal(err)
	}
	scratch := bound.NewScratch()
	space := m.Space()
	for _, p := range preds {
		wantBits, err := strconv.ParseUint(p.Bits, 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := bound.Predict(space.At(p.Index), scratch); math.Float64bits(got) != wantBits {
			t.Errorf("index %d: predicted %v (bits %x), golden bits %s",
				p.Index, got, math.Float64bits(got), p.Bits)
		}
	}
}

func writeGoldenPredictions(t *testing.T, path string, preds []goldenPrediction) {
	t.Helper()
	buf, err := json.MarshalIndent(preds, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGoldenPredictions(t *testing.T, path string) []goldenPrediction {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden predictions missing (regenerate with -update): %v", err)
	}
	var preds []goldenPrediction
	if err := json.Unmarshal(buf, &preds); err != nil {
		t.Fatal(err)
	}
	return preds
}

// TestGoldenV2ModelBitIdentical pins the gob-bodied schema-aware layout:
// a version-2 artifact must keep loading and predicting bit-identically
// even though Save no longer emits it.
func TestGoldenV2ModelBitIdentical(t *testing.T) {
	modelPath := filepath.Join("testdata", "golden_v2.mlt")
	predPath := filepath.Join("testdata", "golden_v2_predictions.json")

	if *updateGolden {
		model := goldenPortableModel(t)
		var legacy bytes.Buffer
		if err := saveLegacyModel(&legacy, model, modelVersionV2); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelPath, legacy.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		writeGoldenPredictions(t, predPath, goldenBoundPredictions(t, model))
	}

	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatalf("golden model missing (regenerate with -update): %v", err)
	}
	var hdr struct {
		Version int             `json:"version"`
		Schema  json.RawMessage `json:"schema"`
	}
	if err := json.Unmarshal(raw[:bytes.IndexByte(raw, '\n')], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 2 || hdr.Schema == nil {
		t.Fatalf("golden file is not version 2 with schema: version=%d", hdr.Version)
	}
	model, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !model.Portable() {
		t.Fatal("v2 golden lost its device block")
	}
	if model.WeightFormat() != 2 {
		t.Fatalf("WeightFormat() = %d, want 2", model.WeightFormat())
	}
	checkGoldenPredictions(t, model, readGoldenPredictions(t, predPath))
}

// TestGoldenV3ModelBitIdentical pins the retired binary layout: Save
// no longer writes v3, so the committed artifact is frozen (no -update
// path) and must keep loading bit-identically. Re-saving the loaded
// model writes a v4 artifact that reproduces the same golden
// predictions and weights.
func TestGoldenV3ModelBitIdentical(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_v3.mlt"))
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(raw, '\n')
	var hdr struct {
		Version int             `json:"version"`
		Schema  json.RawMessage `json:"schema"`
	}
	if err := json.Unmarshal(raw[:nl], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 3 || hdr.Schema == nil {
		t.Fatalf("golden file is not version 3 with schema: version=%d", hdr.Version)
	}
	if !bytes.HasPrefix(raw[nl+1:], binMagic[:]) {
		t.Fatalf("v3 body does not start with the binary magic: %q", raw[nl+1:nl+9])
	}
	model, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if model.WeightFormat() != 3 {
		t.Fatalf("WeightFormat() = %d, want 3", model.WeightFormat())
	}
	preds := readGoldenPredictions(t, filepath.Join("testdata", "golden_v3_predictions.json"))
	checkGoldenPredictions(t, model, preds)

	// Re-saving writes the current format, with the same weights and
	// the same golden predictions.
	var out bytes.Buffer
	if err := model.Save(&out); err != nil {
		t.Fatal(err)
	}
	resaved, err := LoadModelBytes(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if resaved.WeightFormat() != 4 {
		t.Fatalf("re-saved v3 model has WeightFormat() = %d, want 4", resaved.WeightFormat())
	}
	if got, want := resaved.ensemble.MemberFingerprints(nil), model.ensemble.MemberFingerprints(nil); !slices.Equal(got, want) {
		t.Fatalf("re-saved member fingerprints %x, v3-loaded %x", got, want)
	}
	checkGoldenPredictions(t, resaved, preds)
}

// TestTrainingReproducesGoldenWeights pins training itself: retraining
// the golden models reproduces the weights committed in the v1 and v4
// golden files bit for bit. A deliberate training change re-pins them
// by regenerating the goldens with -update (this test then skips).
func TestTrainingReproducesGoldenWeights(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("training bit-identity is pinned on amd64 only: the Go compiler may fuse multiply-adds on %s", runtime.GOARCH)
	}
	if *updateGolden {
		t.Skip("golden files are being regenerated from this build's training")
	}
	for _, c := range []struct {
		file  string
		train func(*testing.T) *Model
	}{
		{"golden_v1.mlt", goldenModel},
		{"golden_v4.mlt", goldenPortableModel},
	} {
		golden, err := LoadModelFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		want := golden.ensemble.MemberFingerprints(nil)
		if got := c.train(t).ensemble.MemberFingerprints(nil); !slices.Equal(got, want) {
			t.Errorf("%s: retrained member fingerprints %x, golden %x", c.file, got, want)
		}
	}
}

// TestWeightFormatFreshModel pins that untrained-from-disk models report
// the version Save would write.
func TestWeightFormatFreshModel(t *testing.T) {
	if got := goldenModel(t).WeightFormat(); got != maxModelVersion {
		t.Fatalf("WeightFormat() = %d, want %d", got, maxModelVersion)
	}
}

// sectionBoundaries returns the file offsets in a v3 (align 8) or v4
// (align 64) artifact where its body starts, its magic ends, and each
// section's header and padded payload end: section k spans
// [cuts[1+2k], cuts[3+2k]).
func sectionBoundaries(tb testing.TB, file []byte, align int) []int {
	tb.Helper()
	start := bytes.IndexByte(file, '\n') + 1
	cuts := []int{start, start + align}
	for off := start + align; off < len(file); {
		if off+align > len(file) {
			tb.Fatalf("artifact ends inside a section header at %d", off)
		}
		length := int(binary.LittleEndian.Uint32(file[off+4:]))
		off += align
		cuts = append(cuts, off)
		off += length + (align-length%align)%align
		cuts = append(cuts, off)
	}
	return cuts
}

// appendSection appends one section to a v3/v4 body: an align-byte
// header, the payload, and zero padding to the next align boundary.
func appendSection(body []byte, tag string, payload []byte, align int) []byte {
	hdr := make([]byte, align)
	copy(hdr, tag)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	body = append(append(body, hdr...), payload...)
	for len(body)%align != 0 {
		body = append(body, 0)
	}
	return body
}

// TestSectionWalkerRejectsTruncation pins the shared section walker
// against both binary versions: every cut of a golden body that does not
// end on a section boundary is rejected, including a cut inside the
// trailing pad of the last section.
func TestSectionWalkerRejectsTruncation(t *testing.T) {
	for _, c := range []struct {
		file  string
		magic [8]byte
		align int
	}{
		{"golden_v3.mlt", binMagic, binAlign3},
		{"golden_v4.mlt", binMagic4, binAlign4},
		{"golden_v4_tables.mlt", binMagic4, binAlign4},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		start := bytes.IndexByte(raw, '\n') + 1
		// An unknown trailing section with a 3-byte payload: the file
		// still loads whole, and owns a trailing pad to cut into.
		body := appendSection(append([]byte(nil), raw[start:]...), "XTRA", []byte{1, 2, 3}, c.align)
		extended := append(raw[:start:start], body...)
		if _, err := LoadModelBytes(extended); err != nil {
			t.Fatalf("%s with an unknown trailing section: %v", c.file, err)
		}
		for _, b := range [][]byte{raw[start:], body} {
			for cut := range len(b) {
				if cut%c.align == 0 {
					continue // a section boundary: may parse with fewer sections
				}
				if _, err := parseSections(b[:cut], c.magic, c.align); err == nil {
					t.Fatalf("%s body cut at %d of %d parsed", c.file, cut, len(b))
				}
			}
		}
	}
	// Every v3 boundary cut misses a required section (WGTS is last).
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_v3.mlt"))
	if err != nil {
		t.Fatal(err)
	}
	cuts := sectionBoundaries(t, raw, binAlign3)
	for _, cut := range cuts[:len(cuts)-1] {
		if _, err := LoadModelBytes(raw[:cut]); err == nil {
			t.Fatalf("golden_v3.mlt cut at section boundary %d of %d loaded", cut, len(raw))
		}
	}
}

// FuzzModelV3Codec feeds mutated model files to LoadModel: truncation
// and corruption must produce errors, never panics, and any input that
// does load must re-save deterministically.
func FuzzModelV3Codec(f *testing.F) {
	space := tuning.NewSpace("fz", tuning.Pow2Param("wg", 1, 8), tuning.BoolParam("v"))
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
	f.Add([]byte("{\"format\":\"mltune-model\",\"version\":3,\"space\":{\"name\":\"x\",\"params\":[{\"name\":\"a\",\"values\":[1,2]}]}}\nMLT3\x00\x00\x00\x00"))
	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[len(corrupt)-9] ^= 0x40
	f.Add(corrupt)
	// Save writes v4, so the real v3 bodies come from the frozen golden
	// artifact: whole, and cut at every section boundary.
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v3.mlt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, cut := range sectionBoundaries(f, golden, binAlign3) {
		f.Add(golden[:cut])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return // rejecting is fine; not panicking is the property
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
