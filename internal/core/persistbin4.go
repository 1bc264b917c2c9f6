package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/ann"
)

// Version-4 binary model body: the 64-byte-aligned section arena.
//
// The v4 body is the v3 section stream (persistbin.go) with every
// section header and payload aligned to 64 bytes:
//
//	magic   "MLT4" + 4 reserved zero bytes, padded to 64   (64 bytes)
//	section tag[4] | uint32 length | 56 reserved zero bytes (64-byte
//	        header), payload, zero padding to the next 64-byte boundary
//
// The JSON header line above the body is space-padded so the body —
// and therefore every section payload — starts at a 64-byte *file*
// offset. The alignment is a format invariant: writers must keep it so
// every v4 file stays byte-identical to the golden one, but the loader
// does not rely on it, because it copy-decodes the weights like v3.
// The same walker (parseSections in persistbin.go) reads both; unknown
// tags are skipped on read. Sections:
//
//	"SCAL"  target scaler: Mean, Std                (2 × float64)
//	"ENSH"  ensemble shape (identical payload encoding to v3)
//	"WGTS"  all weights, member-major layer-major float64 LE
//
// A file carries nothing derived from its weights. Older v4 writers
// also emitted quantised engine tables ("QLUT", "Q16T", "QNT8"); the
// reader skips them as unknown tags, and every quantised engine,
// including the top-M screen, is quantised from the loaded weights.
// Writing is deterministic byte for byte. Reading validates every
// length before allocating and returns errors — never panics — on
// truncation or corruption.

var binMagic4 = [8]byte{'M', 'L', 'T', '4', 0, 0, 0, 0}

const binAlign4 = 64

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

// writeBinaryPayloadV4 writes the v4 arena body.
func writeBinaryPayloadV4(w io.Writer, scaler ann.TargetScaler, st ann.EnsembleState) error {
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
	if bw.err != nil {
		return fmt.Errorf("core: writing v4 model body: %w", bw.err)
	}
	return nil
}
