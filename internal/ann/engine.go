package ann

import "fmt"

// This file defines the pluggable inference-engine boundary: the batched
// forward pass of a trained ensemble sits behind the Engine interface, so
// alternative implementations (today the int16 fixed-point engine in
// quant.go) can drive the prediction stack without forking every caller.
//
// The contract an engine carries is an *error bound*, not bit-identity:
// Float64Engine is the reference — its PredictBatch is the ensemble's
// historical float64 path, bit for bit — and every other engine promises
// |engine output − reference output| ≤ ErrorBound() on the raw
// (standardised) ensemble output, for inputs within the quantisation
// domain (see QuantizeInputDomain). PredictBatchBounds must bracket the
// *reference* prediction, which is what lets a top-M sweep screen with a
// cheap engine and keep pruning sound against exact scores.

// Engine names accepted by NewEngine (and the daemon's -engine flag).
const (
	// EngineFloat64 is the exact float64 reference engine.
	EngineFloat64 = "float64"
	// EngineInt16 is the fixed-point quantised engine with LUT sigmoids.
	EngineInt16 = "int16"
	// EngineInt8 is the narrow fixed-point engine: int8 weights at
	// per-row power-of-two scales over Q14 inputs, int32 accumulators.
	EngineInt8 = "int8"
)

// EngineNames lists the built-in engines, reference first.
func EngineNames() []string { return []string{EngineFloat64, EngineInt16, EngineInt8} }

// EngineScratch is the per-goroutine buffer set of one engine. Like
// BatchScratch it is single-goroutine state; concurrent predictors each
// need their own. The concrete type is engine-specific — callers hold it
// opaquely and hand it back to the engine that created it.
type EngineScratch interface {
	// Capacity returns the largest sample block the scratch can hold.
	Capacity() int
}

// Engine is a batched forward-pass implementation over one trained
// ensemble. Engines are immutable once built and safe for concurrent use
// with distinct scratches.
type Engine interface {
	// Name returns the engine's selection name (see EngineNames).
	Name() string
	// NewScratch allocates buffers for blocks of up to capacity samples.
	NewScratch(capacity int) EngineScratch
	// PredictBatch writes the engine's raw ensemble prediction for count
	// sample-major samples in xs to dst[:count]. The result is within
	// ErrorBound of the reference engine's output.
	PredictBatch(xs []float64, count int, s EngineScratch, dst []float64)
	// PredictBatchBounds writes a conservative bracket of the *reference*
	// (float64) prediction: lb[b] ≤ reference(sample b) ≤ ub[b], up to
	// ulp-level rounding (callers widen by a margin before acting, as with
	// Ensemble.PredictBatchBounds).
	PredictBatchBounds(xs []float64, count int, s EngineScratch, lb, ub []float64)
	// ErrorBound returns the proven worst-case |engine − reference| on the
	// raw ensemble output for in-domain inputs; 0 for the reference itself.
	ErrorBound() float64
}

// Q14Engine is the optional fast-path contract of engines that consume
// pre-quantised Q14 inputs directly (today the int16 and int8 engines).
// It lets the core layer feed index-direct encoded integers, skipping
// the float materialisation entirely.
type Q14Engine interface {
	Engine
	// InputDim returns the input width the engine was built for.
	InputDim() int
	// PredictBatchQ14 is PredictBatch over pre-quantised Q14 inputs.
	PredictBatchQ14(qxs []int16, count int, s EngineScratch, dst []float64)
	// PredictBatchBoundsQ14 is PredictBatchBounds over Q14 inputs.
	PredictBatchBoundsQ14(qxs []int16, count int, s EngineScratch, lb, ub []float64)
}

// NewEngine builds the named engine over e. The quantised engines can
// fail: quantisation rejects topologies it cannot bound (non-sigmoid
// hidden layers) and weight magnitudes outside the integer range.
func NewEngine(name string, e *Ensemble) (Engine, error) {
	switch name {
	case "", EngineFloat64:
		return Float64Engine{E: e}, nil
	case EngineInt16:
		return QuantizeEnsemble(e)
	case EngineInt8:
		return Quantize8Ensemble(e)
	}
	return nil, fmt.Errorf("ann: unknown engine %q (want one of %q)", name, EngineNames())
}

// Float64Engine is the reference engine: the ensemble's existing batched
// float64 path, moved behind the Engine interface unchanged — its
// predictions are bit-identical to Ensemble.PredictBatch (and therefore
// to the scalar Predict), pinned by the existing property tests.
type Float64Engine struct {
	E *Ensemble
}

// Name implements Engine.
func (Float64Engine) Name() string { return EngineFloat64 }

// NewScratch implements Engine.
func (f Float64Engine) NewScratch(capacity int) EngineScratch {
	return f.E.NewBatchScratch(capacity)
}

// PredictBatch implements Engine; it IS the reference path.
func (f Float64Engine) PredictBatch(xs []float64, count int, s EngineScratch, dst []float64) {
	f.E.PredictBatch(xs, count, s.(*BatchPredictScratch), dst)
}

// PredictBatchBounds implements Engine via the monotone-table interval
// pass (see bounds.go).
func (f Float64Engine) PredictBatchBounds(xs []float64, count int, s EngineScratch, lb, ub []float64) {
	f.E.PredictBatchBounds(xs, count, s.(*BatchPredictScratch), lb, ub)
}

// ErrorBound implements Engine: the reference has no error.
func (Float64Engine) ErrorBound() float64 { return 0 }
