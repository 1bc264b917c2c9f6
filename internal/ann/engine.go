package ann

// Engine names: the ways a bound view of a model can predict (see
// core.Model.WithEngine and the daemon's -engine flag).
//
// The float64 reference is the ensemble's own batched path. The int16
// and int8 engines (quant.go, quant8.go) carry an *error bound*, not
// bit-identity: each proves |engine output − reference output| ≤
// ErrorBound() on the raw (standardised) ensemble output, for inputs
// within the quantisation domain [QuantInputLo, QuantInputHi]. Top-M
// screening always runs through the int16 QuantSweeper, whichever
// engine a view selected.
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
