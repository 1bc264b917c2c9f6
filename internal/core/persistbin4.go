package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/ann"
	"repro/internal/mmapx"
)

// Version-4 binary model body: the zero-copy weight arena.
//
// The v3 body made replica installs parse a flat buffer instead of a
// gob stream, but installing still paid a full decode: every weight
// copied to the heap and — when a quantised engine is selected — a
// quantisation pass over the whole ensemble. The v4 body removes both.
// It is a single contiguous arena laid out so a loader can point typed
// slices straight into a read-only memory mapping of the file:
//
//	magic   "MLT4" + 4 reserved zero bytes, padded to 64   (64 bytes)
//	section tag[4] | uint32 length | 56 reserved zero bytes (64-byte
//	        header), payload, zero padding to the next 64-byte boundary
//
// The JSON header line above the body is space-padded so the body —
// and therefore every section payload — starts at a 64-byte *file*
// offset: payloads are cache-line aligned in the mapping, and every
// array type used (float64, int64, int32, int16, int8) lands on its
// natural alignment. Apart from the alignment this is the v3 section
// stream, read by the same walker (parseSections in persistbin.go);
// unknown tags are skipped on read. Sections:
//
//	"SCAL"  target scaler: Mean, Std                (2 × float64)
//	"ENSH"  ensemble shape (identical payload encoding to v3)
//	"WGTS"  all weights, member-major layer-major float64 LE — the
//	        ensemble aliases this in place (ann.EnsembleFromStateShared)
//	"QLUT"  the Q14 sigmoid table the quantised tables were built
//	        against (ann.SigmoidTableQ14); verified at load, the
//	        process-wide shared table is used for inference
//	"Q16T"  int16 engine tables (ann.QuantizedEnsemble.AppendTables)
//	"QNT8"  int8 engine tables (ann.Quantized8Ensemble.AppendTables8)
//
// Q16T/QNT8 are present only when the ensemble quantises (diverged
// weight magnitudes refuse); loading then falls back to quantise-on-
// demand exactly like a v3 model. Writing is deterministic byte for
// byte. Reading validates every length before allocating and returns
// errors — never panics — on truncation or corruption. On platforms or
// payloads where aliasing is impossible (big-endian, misaligned buffer)
// the loader transparently copy-decodes; predictions are identical.

var binMagic4 = [8]byte{'M', 'L', 'T', '4', 0, 0, 0, 0}

const (
	binAlign4 = 64
	binSecLut = "QLUT"
	binSecQ16 = "Q16T"
	binSecQ8  = "QNT8"
)

// binWriter4 appends 64-byte-aligned sections deterministically.
type binWriter4 struct {
	w   io.Writer
	off int // bytes written past the body start
	err error
}

func (bw *binWriter4) write(p []byte) {
	if bw.err != nil {
		return
	}
	_, bw.err = bw.w.Write(p)
	bw.off += len(p)
}

func (bw *binWriter4) pad() {
	if rem := bw.off % binAlign4; rem != 0 {
		var zero [binAlign4]byte
		bw.write(zero[:binAlign4-rem])
	}
}

func (bw *binWriter4) section(tag string, payload []byte) {
	var hdr [binAlign4]byte
	copy(hdr[:4], tag)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	bw.write(hdr[:])
	bw.write(payload)
	bw.pad()
}

// writeBinaryPayloadV4 writes the v4 arena body. q16 and q8, when
// non-nil, contribute the engine-table sections.
func writeBinaryPayloadV4(w io.Writer, scaler ann.TargetScaler, st ann.EnsembleState, q16 *ann.QuantizedEnsemble, q8 *ann.Quantized8Ensemble) error {
	bw := &binWriter4{w: w}
	bw.write(binMagic4[:])
	bw.pad()
	bw.section(binSecScaler, encodeScalerSection(scaler))
	shape, totalWeights, err := encodeShapeSection(st)
	if err != nil {
		return err
	}
	bw.section(binSecShape, shape)
	bw.section(binSecWeights, encodeWeightSection(st, totalWeights))
	if q16 != nil || q8 != nil {
		lut := ann.SigmoidTableQ14()
		lutBytes := make([]byte, 2*len(lut))
		for i, v := range lut {
			binary.LittleEndian.PutUint16(lutBytes[2*i:], uint16(v))
		}
		bw.section(binSecLut, lutBytes)
	}
	if q16 != nil {
		bw.section(binSecQ16, q16.AppendTables(nil))
	}
	if q8 != nil {
		bw.section(binSecQ8, q8.AppendTables8(nil))
	}
	if bw.err != nil {
		return fmt.Errorf("core: writing v4 model body: %w", bw.err)
	}
	return nil
}

// decodeEngineTables decodes the v4 engine-table sections, aliasing
// them in place with arena as their hold reference. Either engine is
// nil when its section is absent. The file's LUT must match this
// build's shared table: the tables were computed against it, and
// inference runs on the shared copy (one hot 16 KiB table across all
// installed models).
func decodeEngineTables(secs *sections, inputDim int, arena *mmapx.Data) (q16 *ann.QuantizedEnsemble, q8 *ann.Quantized8Ensemble, err error) {
	if secs.q16 == nil && secs.q8 == nil {
		return nil, nil, nil
	}
	lut := ann.SigmoidTableQ14()
	if len(secs.lut) != 2*len(lut) {
		return nil, nil, fmt.Errorf("core: v4 sigmoid table is %d bytes, this build's is %d", len(secs.lut), 2*len(lut))
	}
	for i, v := range lut {
		if int16(binary.LittleEndian.Uint16(secs.lut[2*i:])) != v {
			return nil, nil, fmt.Errorf("core: v4 sigmoid table differs from this build's at cell %d — refusing engine tables quantised against a different grid", i)
		}
	}
	if secs.q16 != nil {
		if q16, err = ann.QuantizedEnsembleFromTables(secs.q16, arena); err != nil {
			return nil, nil, fmt.Errorf("core: v4 int16 engine tables: %w", err)
		}
		if q16.InputDim() != inputDim {
			return nil, nil, fmt.Errorf("core: v4 int16 engine tables expect %d inputs, ensemble has %d", q16.InputDim(), inputDim)
		}
	}
	if secs.q8 != nil {
		if q8, err = ann.Quantized8EnsembleFromTables(secs.q8, arena); err != nil {
			return nil, nil, fmt.Errorf("core: v4 int8 engine tables: %w", err)
		}
		if q8.InputDim() != inputDim {
			return nil, nil, fmt.Errorf("core: v4 int8 engine tables expect %d inputs, ensemble has %d", q8.InputDim(), inputDim)
		}
	}
	return q16, q8, nil
}
