package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/ann"
)

// Version-3 binary model body, and the section stream shared with v4.
//
// The v1/v2 body is a gob stream; decoding it dominates replica model
// installs (reflection-driven, allocation-heavy). The v3 body is a flat
// little-endian section stream designed so a reader can jump straight
// to the weights:
//
//	magic   "MLT3" + 4 reserved zero bytes          (8 bytes)
//	section tag[4] | uint32 length | payload | pad  (repeated)
//
// Every section payload is padded to an 8-byte boundary *relative to
// the magic*, and the section header is 8 bytes, so each section —
// including the raw weight block — starts 8-aligned within the body.
// Unknown tags are skipped on read (additive sections stay backward
// compatible); the three defined sections are:
//
//	"SCAL"  target scaler: Mean, Std            (2 × float64)
//	"ENSH"  ensemble shape: member count, then per member the layer
//	        count, the layer sizes (uint32) and the activation codes
//	        (uint8, see actCode)
//	"WGTS"  all weights, member-major layer-major, float64, in the
//	        exact layout ann.NetworkState records
//
// Save no longer writes v3 (a v3-loaded model re-saves as v4), but
// every v3 artifact still loads. The v4 arena (persistbin4.go) is the
// same stream with a 64-byte alignment in place of 8, so one walker,
// parseSections, reads both, and one decoder, decodeBinaryPayload,
// turns either into an ensemble. Reading validates every length
// against hard limits before allocating, and any truncation or
// corruption returns an error — never a panic.

var binMagic = [8]byte{'M', 'L', 'T', '3', 0, 0, 0, 0}

const (
	binSecScaler  = "SCAL"
	binSecShape   = "ENSH"
	binSecWeights = "WGTS"

	binAlign3 = 8

	// Decode limits: far above any real model, low enough that a
	// corrupted length field cannot drive a huge allocation.
	binMaxMembers   = 1 << 12
	binMaxLayers    = 1 << 8
	binMaxLayerSize = 1 << 20
	binMaxWeights   = 1 << 27 // 1 GiB of float64s
)

// actCode pins the on-disk activation encoding independently of the
// Activation enum's numeric values.
func actCode(name string) (uint8, bool) {
	switch name {
	case "sigmoid":
		return 0, true
	case "tanh":
		return 1, true
	case "relu":
		return 2, true
	case "linear":
		return 3, true
	}
	return 0, false
}

func actName(code uint8) (string, bool) {
	switch code {
	case 0:
		return "sigmoid", true
	case 1:
		return "tanh", true
	case 2:
		return "relu", true
	case 3:
		return "linear", true
	}
	return "", false
}

// encodeScalerSection encodes the SCAL payload.
func encodeScalerSection(scaler ann.TargetScaler) []byte {
	var scal [16]byte
	binary.LittleEndian.PutUint64(scal[0:], math.Float64bits(scaler.Mean))
	binary.LittleEndian.PutUint64(scal[8:], math.Float64bits(scaler.Std))
	return scal[:]
}

// encodeShapeSection encodes the ENSH payload and returns the total
// weight count the shape implies.
func encodeShapeSection(st ann.EnsembleState) ([]byte, int, error) {
	var shape []byte
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		shape = append(shape, b[:]...)
	}
	u32(uint32(len(st.Nets)))
	totalWeights := 0
	for _, n := range st.Nets {
		u32(uint32(len(n.Weights)))
		for _, sz := range n.Sizes {
			u32(uint32(sz))
		}
		for _, a := range n.Acts {
			code, ok := actCode(a)
			if !ok {
				return nil, 0, fmt.Errorf("core: binary encode: unknown activation %q", a)
			}
			shape = append(shape, code)
		}
		for _, lw := range n.Weights {
			totalWeights += len(lw)
		}
	}
	return shape, totalWeights, nil
}

// encodeWeightSection encodes the WGTS payload, member-major
// layer-major float64 little-endian.
func encodeWeightSection(st ann.EnsembleState, totalWeights int) []byte {
	weights := make([]byte, 0, totalWeights*8)
	var b [8]byte
	for _, n := range st.Nets {
		for _, lw := range n.Weights {
			for _, v := range lw {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				weights = append(weights, b[:]...)
			}
		}
	}
	return weights
}

// parseScalerSection decodes a SCAL payload.
func parseScalerSection(scal []byte) (ann.TargetScaler, error) {
	var scaler ann.TargetScaler
	if len(scal) != 16 {
		return scaler, fmt.Errorf("core: model scaler section is %d bytes, want 16", len(scal))
	}
	scaler.Mean = math.Float64frombits(binary.LittleEndian.Uint64(scal[0:]))
	scaler.Std = math.Float64frombits(binary.LittleEndian.Uint64(scal[8:]))
	return scaler, nil
}

// parseShapeSection decodes an ENSH payload into per-member topologies
// (Weights left nil) plus the total weight count the shape implies,
// validating every length against the decode limits. members, when
// positive, is cross-checked against the header's advertised count.
func parseShapeSection(shape []byte, members int) ([]ann.NetworkState, int, error) {
	off := 0
	take := func(n int) ([]byte, error) {
		if n > len(shape)-off {
			return nil, fmt.Errorf("core: model shape section truncated (want %d bytes at offset %d of %d)", n, off, len(shape))
		}
		off += n
		return shape[off-n : off], nil
	}
	u32 := func() (uint32, error) {
		p, err := take(4)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(p), nil
	}
	k, err := u32()
	if err != nil {
		return nil, 0, err
	}
	if k == 0 || k > binMaxMembers {
		return nil, 0, fmt.Errorf("core: model body claims %d ensemble members", k)
	}
	if members > 0 && int(k) != members {
		return nil, 0, fmt.Errorf("core: model body has %d members, header says %d", k, members)
	}
	nets := make([]ann.NetworkState, k)
	totalWeights := 0
	for i := range nets {
		layers, err := u32()
		if err != nil {
			return nil, 0, err
		}
		if layers == 0 || layers > binMaxLayers {
			return nil, 0, fmt.Errorf("core: model member %d claims %d weight layers", i, layers)
		}
		sizes := make([]int, layers+1)
		for j := range sizes {
			sz, err := u32()
			if err != nil {
				return nil, 0, err
			}
			if sz == 0 || sz > binMaxLayerSize {
				return nil, 0, fmt.Errorf("core: model member %d layer size %d out of range", i, sz)
			}
			sizes[j] = int(sz)
		}
		acts := make([]string, layers)
		rawActs, err := take(int(layers))
		if err != nil {
			return nil, 0, err
		}
		for j, code := range rawActs {
			name, ok := actName(code)
			if !ok {
				return nil, 0, fmt.Errorf("core: model member %d has unknown activation code %d", i, code)
			}
			acts[j] = name
		}
		nets[i] = ann.NetworkState{Sizes: sizes, Acts: acts}
		for l := 0; l < int(layers); l++ {
			totalWeights += (sizes[l] + 1) * sizes[l+1]
			if totalWeights > binMaxWeights {
				return nil, 0, fmt.Errorf("core: model claims more than %d weights", binMaxWeights)
			}
		}
	}
	if off != len(shape) {
		return nil, 0, fmt.Errorf("core: model shape section has %d trailing bytes", len(shape)-off)
	}
	return nets, totalWeights, nil
}

// sections holds the located section payloads of a v3 or v4 body
// (sub-slices of the body, not copies).
type sections struct {
	scal, shape, weights []byte
}

// parseSections walks a v3 (align 8) or v4 (align 64) body. Both lay
// out the same stream: magic at the start of an align-byte lead block,
// then sections, each an align-byte header (tag[4], uint32 LE payload
// length, reserved bytes) and a payload zero-padded to the next align
// boundary. A repeated tag keeps its last payload; unknown tags are
// skipped. A bad magic, any truncation — including inside a trailing
// pad — and a missing scaler, shape or weight section are errors.
func parseSections(body []byte, magic [8]byte, align int) (*sections, error) {
	if len(body) < align || !bytes.Equal(body[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("core: model body has bad magic (want %q)", magic[:4])
	}
	s := &sections{}
	for off := align; off < len(body); {
		if len(body)-off < align {
			return nil, fmt.Errorf("core: model body truncated in a section header at offset %d", off)
		}
		tag := string(body[off : off+4])
		length := int(binary.LittleEndian.Uint32(body[off+4 : off+8]))
		start := off + align
		if length < 0 || length > len(body)-start {
			return nil, fmt.Errorf("core: model section %q truncated (want %d bytes at offset %d of %d)",
				tag, length, start, len(body))
		}
		end := start + length
		if off = end + (align-end%align)%align; off > len(body) {
			return nil, fmt.Errorf("core: model section %q truncated in its trailing pad", tag)
		}
		payload := body[start:end]
		switch tag {
		case binSecScaler:
			s.scal = payload
		case binSecShape:
			s.shape = payload
		case binSecWeights:
			s.weights = payload
		default:
			// Unknown section: skip. Additive sections from a newer minor
			// revision must not break this reader.
		}
	}
	if s.scal == nil || s.shape == nil || s.weights == nil {
		return nil, fmt.Errorf("core: model body is missing a required section (have scaler=%t shape=%t weights=%t)",
			s.scal != nil, s.shape != nil, s.weights != nil)
	}
	return s, nil
}

// decodedBody is a decoded model body: the scaler and the ensemble.
type decodedBody struct {
	scaler   ann.TargetScaler
	ensemble *ann.Ensemble
}

// decodeBinaryPayload decodes a v3 or v4 body. The weights are
// copy-decoded little-endian onto the heap, so nothing it returns
// aliases body.
func decodeBinaryPayload(body []byte, version, members int) (*decodedBody, error) {
	magic, align := binMagic, binAlign3
	if version == modelVersionV4 {
		magic, align = binMagic4, binAlign4
	}
	secs, err := parseSections(body, magic, align)
	if err != nil {
		return nil, err
	}
	d := &decodedBody{}
	d.scaler, err = parseScalerSection(secs.scal)
	if err != nil {
		return nil, err
	}
	nets, totalWeights, err := parseShapeSection(secs.shape, members)
	if err != nil {
		return nil, err
	}
	if len(secs.weights) != totalWeights*8 {
		return nil, fmt.Errorf("core: model weight section is %d bytes, shape wants %d", len(secs.weights), totalWeights*8)
	}

	ws := make([]float64, totalWeights)
	for j := range ws {
		ws[j] = math.Float64frombits(binary.LittleEndian.Uint64(secs.weights[8*j:]))
	}
	off := 0
	for i := range nets {
		n := &nets[i]
		n.Weights = make([][]float64, len(n.Acts))
		for l := range n.Weights {
			cnt := (n.Sizes[l] + 1) * n.Sizes[l+1]
			n.Weights[l] = ws[off : off+cnt : off+cnt]
			off += cnt
		}
	}
	d.ensemble, err = ann.EnsembleFromState(ann.EnsembleState{Nets: nets})
	if err != nil {
		return nil, err
	}
	return d, nil
}
