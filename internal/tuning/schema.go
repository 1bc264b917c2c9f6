package tuning

import (
	"fmt"
	"math"

	"repro/internal/ann"
	"repro/internal/devsim"
)

// FeatureSchema describes the complete model-input feature layout as an
// ordered composition of blocks:
//
//   - the kernel-parameter block (always present): one feature per tuning
//     parameter, encoded exactly as Encoder does — log2 for
//     power-of-two-valued parameters, scaled to [0, 1];
//   - an optional device block: a fixed list of architectural features
//     derived from a devsim.Descriptor (see DeviceFieldNames), normalised
//     with data-independent reference scales so the same device always
//     encodes to the same vector regardless of the training set.
//
// A schema with only the parameter block reproduces the historical
// encoding bit for bit — it is the layout of persistence-version-1 model
// files. The device block is what makes a model portable: training
// samples from several devices share one model, and prediction for an
// unseen device only needs its descriptor.
//
// The device block forms the "tail" after the parameter block. Its
// values are supplied pre-normalised by the caller (DeviceVector), so
// the hot encode path is a table lookup plus a copy — no
// transcendentals, no allocation when dst has capacity.
type FeatureSchema struct {
	enc          *Encoder
	deviceFields []string // nil = no device block
}

// SchemaOption customises a FeatureSchema at construction time.
type SchemaOption func(*FeatureSchema)

// WithDeviceBlock appends the device block (the DeviceFieldNames
// features) after the parameter block.
func WithDeviceBlock() SchemaOption {
	return func(s *FeatureSchema) { s.deviceFields = DeviceFieldNames() }
}

// NewFeatureSchema builds a schema over the given space.
func NewFeatureSchema(space *Space, opts ...SchemaOption) *FeatureSchema {
	s := &FeatureSchema{enc: NewEncoder(space)}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// ParamSchema returns the parameter-only schema: the historical encoding
// and the layout of version-1 model files.
func ParamSchema(space *Space) *FeatureSchema {
	return NewFeatureSchema(space)
}

// Space returns the schema's tuning space.
func (s *FeatureSchema) Space() *Space { return s.enc.space }

// Dim returns the total feature-vector length across all blocks.
func (s *FeatureSchema) Dim() int { return s.enc.Dim() + s.TailDim() }

// ParamDim returns the parameter block's width (one per parameter).
func (s *FeatureSchema) ParamDim() int { return s.enc.Dim() }

// TailDim returns the width of the tail after the parameter block (the
// device block).
func (s *FeatureSchema) TailDim() int { return len(s.deviceFields) }

// HasDevice reports whether the schema includes the device block.
func (s *FeatureSchema) HasDevice() bool { return len(s.deviceFields) > 0 }

// DeviceFields returns the device block's feature names in encode order
// (nil when the schema has no device block). The returned slice is
// shared; callers must not modify it.
func (s *FeatureSchema) DeviceFields() []string { return s.deviceFields }

// checkTail panics unless tail matches the schema's tail width; encode
// is a hot path with no error return, and a mismatched tail always
// indicates a programming error (an unbound portable model, or a stale
// device vector from a different schema).
func (s *FeatureSchema) checkTail(tail []float64) {
	if len(tail) != s.TailDim() {
		panic(fmt.Sprintf("tuning: schema wants a %d-feature tail, got %d (portable models must be bound to a device before prediction)",
			s.TailDim(), len(tail)))
	}
}

// Encode appends cfg's full feature vector — parameter block then tail —
// to dst and returns it. tail must be the schema's pre-normalised tail
// values (the device vector), with length TailDim(); nil for a
// parameter-only schema.
func (s *FeatureSchema) Encode(cfg Config, tail, dst []float64) []float64 {
	s.checkTail(tail)
	dst = s.enc.Encode(cfg, dst)
	return append(dst, tail...)
}

// EncodeIndex appends the feature vector of the configuration with the
// given dense space index to dst and returns it: bit-identical to
// Encode(space.At(idx), tail, dst) but never materialises the Config —
// the allocation-free primitive of the full-space prediction sweep. It
// panics if idx is out of range, matching Space.At.
func (s *FeatureSchema) EncodeIndex(idx int64, tail, dst []float64) []float64 {
	s.checkTail(tail)
	dst = s.enc.EncodeIndex(idx, dst)
	return append(dst, tail...)
}

// checkTailQ14 is checkTail for the fixed-point tail.
func (s *FeatureSchema) checkTailQ14(tail []int16) {
	if len(tail) != s.TailDim() {
		panic(fmt.Sprintf("tuning: schema wants a %d-feature tail, got %d (portable models must be bound to a device before prediction)",
			s.TailDim(), len(tail)))
	}
}

// QuantizeTailQ14 appends the Q14 quantisation of a pre-normalised tail
// (see Encode) to dst and returns it. Callers bind a device once and
// reuse the quantised tail across the whole sweep.
func (s *FeatureSchema) QuantizeTailQ14(tail []float64, dst []int16) []int16 {
	s.checkTail(tail)
	for _, v := range tail {
		dst = append(dst, ann.QuantizeQ14(v))
	}
	return dst
}

// EncodeIndexQ14 appends the Q14 fixed-point feature vector of the
// configuration with the given dense space index — parameter block then
// tail — to dst and returns it. Every feature is exactly ann.QuantizeQ14
// of the corresponding EncodeIndex output, which is the input convention
// the int16 engine's error bound is proven against.
func (s *FeatureSchema) EncodeIndexQ14(idx int64, tail []int16, dst []int16) []int16 {
	s.checkTailQ14(tail)
	dst = s.enc.EncodeIndexQ14(idx, dst)
	return append(dst, tail...)
}

// Q14Levels returns the parameter block's per-level Q14 feature tables
// (see Encoder.Q14Levels).
func (s *FeatureSchema) Q14Levels() [][]int16 { return s.enc.Q14Levels() }

// Levels returns the parameter block's per-level float64 feature tables
// (see Encoder.Levels).
func (s *FeatureSchema) Levels() [][]float64 { return s.enc.Levels() }

// --- device block ------------------------------------------------------

// deviceField is one descriptor-derived feature: a name and a pure,
// data-independent extractor producing a value normalised to roughly
// [0, 1] over the range of plausible OpenCL hardware.
type deviceField struct {
	name string
	get  func(d *devsim.Descriptor) float64
}

// deviceFields lists the device block's features in encode order. The
// normalisation constants are fixed reference scales, NOT fitted to any
// training set: log-scaled fields divide log2(1+x) by the log of a
// generous hardware upper bound, linear fields divide by one. Changing a
// name, an extractor or the order is a schema break: persisted v2 models
// record the names and refuse to load against a different list.
var deviceFields = []deviceField{
	{"kind", func(d *devsim.Descriptor) float64 {
		if d.Kind == devsim.GPU {
			return 1
		}
		return 0
	}},
	{"compute_units", func(d *devsim.Descriptor) float64 { return logNorm(float64(d.ComputeUnits), 8) }},      // 256 CUs
	{"simd_width", func(d *devsim.Descriptor) float64 { return logNorm(float64(d.SIMDWidth), 8) }},            // 256 lanes
	{"clock_ghz", func(d *devsim.Descriptor) float64 { return d.ClockGHz / 5 }},                               // 5 GHz
	{"flops_per_lane_cycle", func(d *devsim.Descriptor) float64 { return d.FlopsPerLaneCycle / 4 }},           // FMA x2
	{"mem_bandwidth_gbs", func(d *devsim.Descriptor) float64 { return logNorm(d.MemBandwidthGBs, 12) }},       // 4 TB/s
	{"mem_latency_ns", func(d *devsim.Descriptor) float64 { return logNorm(d.MemLatencyNs, 10) }},             // ~1 µs
	{"cache_line_bytes", func(d *devsim.Descriptor) float64 { return logNorm(float64(d.CacheLineBytes), 9) }}, // 512 B
	{"llc_bytes", func(d *devsim.Descriptor) float64 { return logNorm(float64(d.LLCBytes), 28) }},             // 256 MB
	{"lds_bytes_per_cu", func(d *devsim.Descriptor) float64 { return logNorm(float64(d.LDSBytesPerCU), 18) }}, // 256 KB
	{"local_mem_per_group", func(d *devsim.Descriptor) float64 { return logNorm(float64(d.LocalMemLimit()), 18) }},
	{"max_work_group_size", func(d *devsim.Descriptor) float64 { return logNorm(float64(d.MaxWorkGroupSize), 14) }}, // 16384
}

// logNorm maps x >= 0 into [0, ~1] as log2(1+x)/scale; the +1 keeps a
// zero-valued field (e.g. no scratchpad) at exactly 0 instead of -Inf.
func logNorm(x, scale float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Log2(1+x) / scale
}

// deviceFieldNames is the precomputed name list shared by every caller.
var deviceFieldNames = func() []string {
	names := make([]string, len(deviceFields))
	for i, f := range deviceFields {
		names[i] = f.name
	}
	return names
}()

// DeviceFieldNames returns the device block's feature names in encode
// order. The returned slice is shared; callers must not modify it.
func DeviceFieldNames() []string { return deviceFieldNames }

// DeviceVector appends the normalised device features of d to dst and
// returns it: the tail a portable model is bound with, and the per-sample
// device features of pooled training. The vector is a pure function of
// the descriptor — two processes always derive the same features for the
// same hardware.
func DeviceVector(d *devsim.Descriptor, dst []float64) []float64 {
	for _, f := range deviceFields {
		dst = append(dst, f.get(d))
	}
	return dst
}
