package ann

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// arenaInputs builds deterministic in-domain inputs for a round-trip
// comparison batch.
func arenaInputs(rng *rand.Rand, dim, count int) []float64 {
	xs := make([]float64, dim*count)
	for i := range xs {
		xs[i] = QuantInputLo + rng.Float64()*(QuantInputHi-QuantInputLo)
	}
	return xs
}

// TestQuantTablesRoundTrip pins the serialised-table contract for both
// quantised engines: decode(encode(q)) predicts bit-identically to q,
// reports the same error bound, and re-encodes to the same bytes
// (serialisation is deterministic, so v4 files are byte-stable).
func TestQuantTablesRoundTrip(t *testing.T) {
	for _, ec := range engineCases(t) {
		t.Run(ec.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			q16, err := QuantizeEnsemble(ec.e)
			if err != nil {
				t.Fatal(err)
			}
			q8, err := Quantize8Ensemble(ec.e)
			if err != nil {
				t.Fatal(err)
			}
			enc16 := q16.AppendTables(nil)
			enc8 := q8.AppendTables8(nil)
			dec16, err := QuantizedEnsembleFromTables(enc16, nil)
			if err != nil {
				t.Fatalf("int16 decode: %v", err)
			}
			dec8, err := Quantized8EnsembleFromTables(enc8, nil)
			if err != nil {
				t.Fatalf("int8 decode: %v", err)
			}
			for _, pair := range []struct {
				name       string
				orig, dec  Q14Engine
				origBound  float64
				reencoded  []byte
				firstBytes []byte
			}{
				{"int16", q16, dec16, q16.ErrorBound(), dec16.AppendTables(nil), enc16},
				{"int8", q8, dec8, q8.ErrorBound(), dec8.AppendTables8(nil), enc8},
			} {
				if pair.dec.ErrorBound() != pair.origBound {
					t.Errorf("%s: decoded bound %g != %g", pair.name, pair.dec.ErrorBound(), pair.origBound)
				}
				if pair.dec.InputDim() != pair.orig.InputDim() {
					t.Errorf("%s: decoded input dim %d != %d", pair.name, pair.dec.InputDim(), pair.orig.InputDim())
				}
				if !bytes.Equal(pair.reencoded, pair.firstBytes) {
					t.Errorf("%s: re-encoded tables differ from original encoding", pair.name)
				}
				count := 16
				xs := arenaInputs(rng, pair.orig.InputDim(), count)
				want := make([]float64, count)
				got := make([]float64, count)
				pair.orig.PredictBatch(xs, count, pair.orig.NewScratch(count), want)
				pair.dec.PredictBatch(xs, count, pair.dec.NewScratch(count), got)
				for i := 0; i < count; i++ {
					if got[i] != want[i] {
						t.Fatalf("%s sample %d: decoded engine diverged: %g vs %g",
							pair.name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestQuantTablesMisalignedPayloadFallsBack pins the copy-decode path: a
// payload at an odd byte offset cannot alias typed slices, so decoding
// must copy — and still predict identically.
func TestQuantTablesMisalignedPayloadFallsBack(t *testing.T) {
	ecs := engineCases(t)
	e := ecs[0].e
	q16, err := QuantizeEnsemble(e)
	if err != nil {
		t.Fatal(err)
	}
	q8, err := Quantize8Ensemble(e)
	if err != nil {
		t.Fatal(err)
	}
	enc16 := q16.AppendTables(nil)
	enc8 := q8.AppendTables8(nil)
	shift := func(enc []byte) []byte {
		buf := make([]byte, len(enc)+1)
		copy(buf[1:], enc)
		return buf[1:]
	}
	hold := new(int)
	dec16, err := QuantizedEnsembleFromTables(shift(enc16), hold)
	if err != nil {
		t.Fatalf("int16 misaligned decode: %v", err)
	}
	if dec16.hold != nil {
		t.Error("int16: copy-decoded engine retained hold reference")
	}
	dec8, err := Quantized8EnsembleFromTables(shift(enc8), hold)
	if err != nil {
		t.Fatalf("int8 misaligned decode: %v", err)
	}
	if dec8.hold != nil {
		t.Error("int8: copy-decoded engine retained hold reference")
	}
	rng := rand.New(rand.NewSource(17))
	xs := arenaInputs(rng, q16.InputDim(), 8)
	for _, pair := range []struct {
		name      string
		orig, dec Q14Engine
	}{{"int16", q16, dec16}, {"int8", q8, dec8}} {
		want := make([]float64, 8)
		got := make([]float64, 8)
		pair.orig.PredictBatch(xs, 8, pair.orig.NewScratch(8), want)
		pair.dec.PredictBatch(xs, 8, pair.dec.NewScratch(8), got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s sample %d: %g != %g", pair.name, i, got[i], want[i])
			}
		}
	}
}

// TestQuantTablesRejectCorruption pins panic-freedom and fail-closed
// decoding: every truncation prefix and a sweep of single-byte metadata
// corruptions must return an error or a well-formed engine — never
// panic, never index out of bounds.
func TestQuantTablesRejectCorruption(t *testing.T) {
	ecs := engineCases(t)
	q16, err := QuantizeEnsemble(ecs[0].e)
	if err != nil {
		t.Fatal(err)
	}
	q8, err := Quantize8Ensemble(ecs[0].e)
	if err != nil {
		t.Fatal(err)
	}
	enc16 := q16.AppendTables(nil)
	enc8 := q8.AppendTables8(nil)

	for name, tc := range map[string]struct {
		enc    []byte
		decode func([]byte) error
	}{
		"int16": {enc16, func(b []byte) error { _, err := QuantizedEnsembleFromTables(b, nil); return err }},
		"int8":  {enc8, func(b []byte) error { _, err := Quantized8EnsembleFromTables(b, nil); return err }},
	} {
		t.Run(name, func(t *testing.T) {
			for cut := 0; cut < len(tc.enc); cut++ {
				if err := tc.decode(tc.enc[:cut]); err == nil {
					t.Fatalf("truncation at %d bytes decoded successfully", cut)
				}
			}
			// Single-byte corruptions of the metadata region: must not
			// panic. (Corrupted array payloads decode to different — but
			// structurally valid — engines; that is the section checksum's
			// job at the persistence layer, not this codec's.)
			metaEnd := 64
			if metaEnd > len(tc.enc) {
				metaEnd = len(tc.enc)
			}
			for pos := 0; pos < metaEnd; pos++ {
				for _, flip := range []byte{0xFF, 0x80, 0x01} {
					mut := append([]byte(nil), tc.enc...)
					if mut[pos] == flip {
						continue
					}
					mut[pos] = flip
					_ = tc.decode(mut) // must simply not panic
				}
			}
		})
	}
}

// FuzzQuantTables feeds arbitrary bytes to both decoders: any input must
// either fail cleanly or produce an engine that predicts without
// panicking.
func FuzzQuantTables(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	n := MustNew(rng, []int{3, 4, 1}, Sigmoid, Linear)
	e := &Ensemble{nets: []*Network{n}}
	if q, err := QuantizeEnsemble(e); err == nil {
		f.Add(q.AppendTables(nil))
	}
	if q, err := Quantize8Ensemble(e); err == nil {
		f.Add(q.AppendTables8(nil))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range []func([]byte) (Q14Engine, error){
			func(b []byte) (Q14Engine, error) { return QuantizedEnsembleFromTables(b, nil) },
			func(b []byte) (Q14Engine, error) { return Quantized8EnsembleFromTables(b, nil) },
		} {
			q, err := decode(data)
			if err != nil {
				continue
			}
			dim := q.InputDim()
			if dim < 1 || dim > qaMaxLayerSize {
				t.Fatalf("decoded engine has input dim %d", dim)
			}
			xs := make([]float64, dim)
			dst := make([]float64, 1)
			q.PredictBatch(xs, 1, q.NewScratch(1), dst)
			if math.IsNaN(dst[0]) && !math.IsNaN(q.ErrorBound()) {
				// NaN output from finite tables would break screening.
				t.Fatalf("decoded engine predicts NaN with finite bound")
			}
		}
	})
}
