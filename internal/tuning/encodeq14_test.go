package tuning

import (
	"testing"

	"repro/internal/ann"
	"repro/internal/devsim"
)

// TestEncodeIndexQ14MatchesFloat pins the lockstep contract between the
// float encoder and the fixed-point tables: for every index of a mixed
// space, EncodeIndexQ14 must equal ann.QuantizeQ14 applied feature-wise
// to EncodeIndex. The int16 engine's error bound assumes exactly this.
func TestEncodeIndexQ14MatchesFloat(t *testing.T) {
	space := NewSpace("q14",
		Pow2Param("wg", 1, 256),
		NewParam("unroll", 1, 2, 3, 5),
		BoolParam("vec"),
	)
	enc := NewEncoder(space)
	var fdst []float64
	var qdst []int16
	for idx := int64(0); idx < space.Size(); idx++ {
		fdst = enc.EncodeIndex(idx, fdst[:0])
		qdst = enc.EncodeIndexQ14(idx, qdst[:0])
		if len(qdst) != len(fdst) {
			t.Fatalf("idx %d: width %d != %d", idx, len(qdst), len(fdst))
		}
		for i, f := range fdst {
			if want := ann.QuantizeQ14(f); qdst[i] != want {
				t.Fatalf("idx %d feature %d: %d != QuantizeQ14(%g) = %d", idx, i, qdst[i], f, want)
			}
		}
	}
	// The level tables are the per-digit images of the same encoding:
	// the float64 levels EncodeIndex reads and their Q14 roundings.
	levels, qlevels := enc.Levels(), enc.Q14Levels()
	for idx := int64(0); idx < space.Size(); idx++ {
		fdst = enc.EncodeIndex(idx, fdst[:0])
		rem := idx
		for i := len(levels) - 1; i >= 0; i-- {
			v := rem % int64(len(levels[i]))
			rem /= int64(len(levels[i]))
			if fdst[i] != levels[i][v] || qlevels[i][v] != ann.QuantizeQ14(levels[i][v]) {
				t.Fatalf("idx %d feature %d: levels %g/%d, EncodeIndex %g", idx, i, levels[i][v], qlevels[i][v], fdst[i])
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range index")
		}
	}()
	enc.EncodeIndexQ14(space.Size(), nil)
}

// TestSchemaEncodeIndexQ14 pins the schema-level composition: parameter
// block from the tables, tail appended verbatim from the pre-quantised
// device vector.
func TestSchemaEncodeIndexQ14(t *testing.T) {
	space := NewSpace("q14s", Pow2Param("wg", 1, 16), BoolParam("vec"))
	s := NewFeatureSchema(space, WithDeviceBlock())
	desc := devsim.MustLookup("Nvidia K40").Descriptor()
	tail := DeviceVector(&desc, nil)
	qtail := s.QuantizeTailQ14(tail, nil)
	if len(qtail) != s.TailDim() {
		t.Fatalf("quantised tail width %d != %d", len(qtail), s.TailDim())
	}

	var fdst []float64
	var qdst []int16
	for _, idx := range []int64{0, 1, space.Size() - 1} {
		fdst = s.EncodeIndex(idx, tail, fdst[:0])
		qdst = s.EncodeIndexQ14(idx, qtail, qdst[:0])
		if len(qdst) != s.Dim() || len(fdst) != s.Dim() {
			t.Fatalf("idx %d: widths %d/%d != %d", idx, len(qdst), len(fdst), s.Dim())
		}
		for i, f := range fdst {
			if want := ann.QuantizeQ14(f); qdst[i] != want {
				t.Fatalf("idx %d feature %d: %d != %d", idx, i, qdst[i], want)
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mis-sized quantised tail")
		}
	}()
	s.EncodeIndexQ14(0, qtail[:1], nil)
}
