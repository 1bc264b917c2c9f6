package tuning

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/devsim"
)

func TestDeviceVectorCatalog(t *testing.T) {
	names := DeviceFieldNames()
	if len(names) == 0 {
		t.Fatal("empty device field list")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("device field list has empty or duplicate name: %v", names)
		}
		seen[n] = true
	}

	vectors := map[string][]float64{}
	for _, devName := range devsim.Names() {
		desc := devsim.MustLookup(devName).Descriptor()
		vec := DeviceVector(&desc, nil)
		if len(vec) != len(names) {
			t.Fatalf("%s: vector length %d, want %d", devName, len(vec), len(names))
		}
		for i, v := range vec {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1.5 {
				t.Errorf("%s feature %s = %v outside the normalised range", devName, names[i], v)
			}
		}
		vectors[devName] = vec
		// Determinism: the vector is a pure function of the descriptor.
		again := DeviceVector(&desc, nil)
		for i := range vec {
			if vec[i] != again[i] {
				t.Fatalf("%s: DeviceVector not deterministic at %d", devName, i)
			}
		}
	}
	// Distinct catalog devices must encode distinctly, or the portable
	// model could not tell them apart.
	devNames := devsim.Names()
	for i := 0; i < len(devNames); i++ {
		for j := i + 1; j < len(devNames); j++ {
			a, b := vectors[devNames[i]], vectors[devNames[j]]
			same := true
			for k := range a {
				if a[k] != b[k] {
					same = false
					break
				}
			}
			if same {
				t.Errorf("devices %s and %s encode identically", devNames[i], devNames[j])
			}
		}
	}
	// Appending to a non-empty dst leaves the prefix alone.
	desc := devsim.MustLookup(devsim.NvidiaK40).Descriptor()
	dst := DeviceVector(&desc, []float64{-3})
	if dst[0] != -3 || len(dst) != len(names)+1 {
		t.Fatalf("DeviceVector append broke the prefix: %v", dst)
	}
}

// TestSchemaEncodeProperty is the schema round-trip property test: over
// random spaces, configurations and devices, the full encoding is
// order-stable (identical bytes on repeated encodes), equal to the
// parameter encoding followed by the tail, and EncodeIndex is
// bit-identical to Encode of the materialised configuration.
func TestSchemaEncodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	devNames := devsim.Names()
	for trial := 0; trial < 25; trial++ {
		space := randomSpace(rng, trial)
		schema := NewFeatureSchema(space, WithDeviceBlock())
		enc := NewEncoder(space)
		desc := devsim.MustLookup(devNames[trial%len(devNames)]).Descriptor()
		tail := DeviceVector(&desc, nil)

		if schema.Dim() != enc.Dim()+len(tail) {
			t.Fatalf("trial %d: Dim %d, want %d+%d", trial, schema.Dim(), enc.Dim(), len(tail))
		}
		for probe := 0; probe < 50; probe++ {
			idx := rng.Int63n(space.Size())
			cfg := space.At(idx)
			got := schema.Encode(cfg, tail, nil)
			again := schema.Encode(cfg, tail, nil)
			byIndex := schema.EncodeIndex(idx, tail, nil)
			want := append(enc.Encode(cfg, nil), tail...)
			if len(got) != len(want) || len(byIndex) != len(want) {
				t.Fatalf("trial %d idx %d: lengths %d/%d, want %d", trial, idx, len(got), len(byIndex), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d idx %d feature %d: Encode %v, want %v", trial, idx, i, got[i], want[i])
				}
				if got[i] != again[i] {
					t.Fatalf("trial %d idx %d feature %d: encode not order-stable", trial, idx, i)
				}
				if byIndex[i] != want[i] {
					t.Fatalf("trial %d idx %d feature %d: EncodeIndex %v, want %v", trial, idx, i, byIndex[i], want[i])
				}
			}
		}
	}
}

// randomSpace builds a small random space mixing pow2, linear and bool
// parameters.
func randomSpace(rng *rand.Rand, serial int) *Space {
	n := 2 + rng.Intn(4)
	params := make([]Param, n)
	for i := range params {
		name := string(rune('a' + i))
		switch rng.Intn(3) {
		case 0:
			params[i] = Pow2Param(name, 1, 1<<(1+rng.Intn(6)))
		case 1:
			params[i] = BoolParam(name)
		default:
			k := 2 + rng.Intn(4)
			vals := make([]int, k)
			for j := range vals {
				vals[j] = 3*j + rng.Intn(3) + 1 + j // strictly increasing, no dups
			}
			params[i] = NewParam(name, vals...)
		}
	}
	return NewSpace("rand", params...)
}

// TestSchemaEncodeIndexAllocFree pins the hot-path contract: encoding
// into a dst with sufficient capacity allocates nothing.
func TestSchemaEncodeIndexAllocFree(t *testing.T) {
	space := testSpace()
	schema := NewFeatureSchema(space, WithDeviceBlock())
	desc := devsim.MustLookup(devsim.AMD7970).Descriptor()
	tail := DeviceVector(&desc, nil)
	dst := make([]float64, 0, schema.Dim())
	idx := space.Size() - 1
	allocs := testing.AllocsPerRun(200, func() {
		dst = schema.EncodeIndex(idx, tail, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("EncodeIndex allocated %v times per run", allocs)
	}
	// The parameter-only schema shares the contract.
	pschema := ParamSchema(space)
	pdst := make([]float64, 0, pschema.Dim())
	allocs = testing.AllocsPerRun(200, func() {
		pdst = pschema.EncodeIndex(idx, nil, pdst[:0])
	})
	if allocs != 0 {
		t.Fatalf("param-only EncodeIndex allocated %v times per run", allocs)
	}
}

// TestParamSchemaMatchesEncoder pins backwards compatibility: the
// parameter-only schema is bit-identical to the historical Encoder, the
// layout of version-1 model files.
func TestParamSchemaMatchesEncoder(t *testing.T) {
	space := testSpace()
	schema := ParamSchema(space)
	enc := NewEncoder(space)
	if schema.Dim() != enc.Dim() || schema.TailDim() != 0 || schema.HasDevice() {
		t.Fatalf("param schema shape: dim %d tail %d", schema.Dim(), schema.TailDim())
	}
	for idx := int64(0); idx < space.Size(); idx++ {
		a := schema.EncodeIndex(idx, nil, nil)
		b := enc.EncodeIndex(idx, nil)
		for i := range b {
			if a[i] != b[i] {
				t.Fatalf("idx %d feature %d: schema %v, encoder %v", idx, i, a[i], b[i])
			}
		}
	}
}

func TestSchemaTailMismatchPanics(t *testing.T) {
	schema := NewFeatureSchema(testSpace(), WithDeviceBlock())
	defer func() {
		if recover() == nil {
			t.Error("encoding a device schema without a tail did not panic")
		}
	}()
	schema.Encode(testSpace().At(0), nil, nil)
}
