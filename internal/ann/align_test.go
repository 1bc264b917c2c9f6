package ann

import (
	"reflect"
	"sort"
	"testing"
)

// optimalStructSize computes the smallest size the struct could occupy
// if its fields were reordered largest-alignment-first — the same
// packing the x/tools fieldalignment analyzer suggests. Nested structs
// are taken at their declared size (reordering inner fields is the
// inner type's own responsibility and has its own entry in the test).
func optimalStructSize(t reflect.Type) uintptr {
	fields := make([]reflect.Type, t.NumField())
	for i := range fields {
		fields[i] = t.Field(i).Type
	}
	sort.SliceStable(fields, func(i, j int) bool {
		if fields[i].Align() != fields[j].Align() {
			return fields[i].Align() > fields[j].Align()
		}
		return fields[i].Size() > fields[j].Size()
	})
	var off, maxAlign uintptr = 0, 1
	for _, f := range fields {
		a := uintptr(f.Align())
		if a > maxAlign {
			maxAlign = a
		}
		off = (off + a - 1) &^ (a - 1)
		off += f.Size()
	}
	return (off + maxAlign - 1) &^ (maxAlign - 1)
}

// TestHotStructFieldAlignment pins that the inference hot path's structs
// waste no padding: their declared layout matches the optimal
// largest-first packing. These structs are instantiated per scratch and
// per sweep tile; padding in them is pure cache-line waste on the
// hottest loops in the repo. (The x/tools fieldalignment vet check is
// not installable in this environment, so the invariant is enforced
// in-repo by construction.)
func TestHotStructFieldAlignment(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  reflect.Type
	}{
		{"qLayer", reflect.TypeOf(qLayer{})},
		{"q8Layer", reflect.TypeOf(q8Layer{})},
		{"QuantizedEnsemble", reflect.TypeOf(QuantizedEnsemble{})},
		{"Quantized8Ensemble", reflect.TypeOf(Quantized8Ensemble{})},
		{"QuantScratch", reflect.TypeOf(QuantScratch{})},
		{"Quant8Scratch", reflect.TypeOf(Quant8Scratch{})},
		{"QuantSweeper", reflect.TypeOf(QuantSweeper{})},
	} {
		if got, want := tc.typ.Size(), optimalStructSize(tc.typ); got != want {
			t.Errorf("%s: size %d bytes, optimal packing is %d — reorder fields largest-first",
				tc.name, got, want)
		}
	}
}
