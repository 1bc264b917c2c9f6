package ann

import (
	"fmt"
	"math"
)

// Int8 fixed-point inference engine.
//
// Quantize8Ensemble converts a trained ensemble (sigmoid hidden layers,
// single linear output — the paper topology) into int8 (Q7-class)
// weights with a *per-row* power-of-two scale, int32 bias/accumulators,
// and the same shared Q14 sigmoid table as the int16 engine. Inputs and
// hidden activations stay Q14 int16 — the existing index-direct Q14
// encoders feed it unchanged — so every multiply is int8×int16 widened
// into an int32 accumulator: half the accumulator width and half the
// weight traffic of the int16 engine, the layout a vector unit wants.
//
// Eight-bit weights are too coarse for the int16 engine's proof style
// (worst-case half-ulp on every weight would be vacuous), so the bound
// here is sharper on two axes, and still fully proven:
//
//  1. Rounding residuals are *measured, not bounded*: quantisation
//     records R_j = Σ_i |w_ji − w8_ji/2^k_j| and ρ_j = |b_j − b32_j/2^(k_j+14)|
//     per output row — exact constants of the built engine, typically
//     half the worst case.
//  2. Errors propagate *per hidden unit*, not as a layer-wide max: unit
//     j of layer ℓ+1 inherits Σ_i (|w_ji| + r_ji)·e_i from the units it
//     actually reads, weighted by its actual weights.
//
// Per-unit recurrence (all in the raw standardised output space), with
// e_i the incoming unit errors (e_i = 2^-14 quantisation for inputs,
// which also covers the clamp at the [QuantInputLo, QuantInputHi]
// domain edge) and Xmax the incoming magnitude cap (QuantInputHi for
// the input layer — Q14 inputs satisfy |qx/2^14| ≤ 2 exactly — and 1
// for sigmoid activations):
//
//	pre_j  = R_j·Xmax + Σ_i (|w_ji| + r_ji)·e_i + ρ_j
//	         (integer accumulation itself is exact)
//	e'_j   = pre_j/4 + 2^-(qLutBits+3) + 2^-(qFrac+1) + σ(qLutLo)
//	         (sigmoid is ¼-Lipschitz; half-cell midpoint step through
//	         Lipschitz ¼; Q14 rounding of the stored entry; clamp tail)
//	output = pre of the single linear row, exactly (int32→float64 and
//	         the power-of-two rescale are exact)
//
// The ensemble mean's error is at most the worst member's; a 1e-9
// absolute slack absorbs the reference path's own float64 rounding
// versus real arithmetic. The resulting bound is what PredictBatchBounds
// brackets with. It is an order of magnitude wider than int16's, too
// wide to prune a trained model's space, so no top-M sweep screens with
// it: a model viewed on the int8 engine screens through the int16
// engine over the same weights (see core.Model.WithEngine).

const (
	// q8Max is the int8 weight magnitude cap (Q7: 7 value bits).
	q8Max = 127
	// q8MinShift is the lowest per-row scale exponent: shift = k + qFrac
	// − qLutBits must stay non-negative for the arithmetic-shift grid
	// mapping, so k ≥ qLutBits − qFrac.
	q8MinShift = qLutBits - qFrac
	// q8AccMax is the int32 accumulator budget rows must provably fit.
	q8AccMax = math.MaxInt32
)

// q8Layer is one int8-quantised weight layer. Fields are ordered
// pointer-width first for field alignment (see TestHotStructAlignment).
type q8Layer struct {
	// w holds in*out weights row-major by output neuron, row j at scale
	// 2^shiftk(j) (bias is NOT interleaved — it lives in b at
	// accumulation scale).
	w []int8
	// b holds per-output biases at scale 2^(k_j+qFrac), the row's own
	// accumulator scale, so the forward pass seeds the accumulator
	// directly.
	b []int32
	// shift maps row j's accumulator at scale 2^(k_j+qFrac) onto the
	// sigmoid grid: cell = acc >> shift[j], shift[j] = k_j + qFrac −
	// qLutBits ≥ 0 (k_j ≥ q8MinShift is enforced at quantise time).
	shift []uint8
	// invOut rescales the linear output row's accumulator to a float64
	// value: 1 / 2^(k_0+qFrac). Power of two, so the multiply is exact.
	invOut  float64
	in, out int
	linear  bool
}

// Quantized8Ensemble is the int8 engine over one trained ensemble. It
// is immutable after Quantize8Ensemble and safe for concurrent use with
// distinct scratches.
type Quantized8Ensemble struct {
	members [][]q8Layer
	lut     []int16
	// hold pins the backing store alive when the weight slices alias a
	// memory-mapped v4 arena (see quantarena.go); nil for heap-built
	// engines.
	hold     any
	bound    float64
	inDim    int
	maxWidth int
}

// Quant8Scratch is the int8 engine's per-goroutine buffer set.
type Quant8Scratch struct {
	qin      []int16
	bufA     []int16
	bufB     []int16
	sum      []float64
	capacity int
}

// Capacity implements EngineScratch.
func (s *Quant8Scratch) Capacity() int { return s.capacity }

// Quantize8Ensemble builds the int8 engine. It fails — rather than
// degrade silently — when the topology has activations the error proof
// does not cover, when the output is not a single value, or when weight
// or bias magnitudes cannot fit the int8/int32 budgets.
func Quantize8Ensemble(e *Ensemble) (*Quantized8Ensemble, error) {
	if e == nil || len(e.nets) == 0 {
		return nil, fmt.Errorf("ann: quantize8: empty ensemble")
	}
	q := &Quantized8Ensemble{
		members: make([][]q8Layer, len(e.nets)),
		inDim:   e.nets[0].sizes[0],
		lut:     sigmoidLut(),
	}
	for i, n := range e.nets {
		layers, memberBound, err := quantize8Network(n)
		if err != nil {
			return nil, fmt.Errorf("ann: quantize8 member %d: %w", i, err)
		}
		if n.sizes[0] != q.inDim {
			return nil, fmt.Errorf("ann: quantize8 member %d: input width %d != %d", i, n.sizes[0], q.inDim)
		}
		q.members[i] = layers
		if memberBound > q.bound {
			q.bound = memberBound
		}
		for _, sz := range n.sizes[1:] {
			if sz > q.maxWidth {
				q.maxWidth = sz
			}
		}
	}
	// The ensemble mean of per-member errors is at most the worst member's
	// error; 1e-9 absorbs the reference path's own float rounding.
	q.bound += 1e-9
	return q, nil
}

// q8RowScale picks row's largest power-of-two scale exponent k in
// [q8MinShift, qMaxShift] such that every weight rounds into [-127,
// 127] and the row's worst-case int32 accumulator — bias plus Σ|w8|
// times the widest possible Q14 operand — provably fits q8AccMax.
// inMaxQ is that operand cap: 32768 for the input layer (Q14 of −2),
// qOne for sigmoid activations.
func q8RowScale(row []float64, bias float64, inMaxQ int64) (int, error) {
	maxAbs := 0.0
	for _, v := range row {
		av := math.Abs(v)
		if av > maxAbs {
			maxAbs = av
		}
	}
	// Largest k with round(maxAbs·2^k) ≤ 127, i.e. maxAbs·2^k < 127.5:
	// every representable bit matters at 8-bit width, so no headroom bit
	// is reserved the way the int16 rule does.
	if math.Ldexp(maxAbs, q8MinShift+1) >= 2*q8Max+1 {
		return 0, fmt.Errorf("weight magnitude %g exceeds int8 range (model diverged?)", maxAbs)
	}
	k := q8MinShift
	for k < qMaxShift && math.Ldexp(maxAbs, k+2) < 2*q8Max+1 {
		k++
	}
	// Shrink k until the bias representation and the worst-case row
	// accumulator fit int32; both shrink with k, so the loop terminates
	// at q8MinShift or a fitting scale.
	for ; k >= q8MinShift; k-- {
		b := math.Abs(math.Round(math.Ldexp(bias, k+qFrac)))
		if b > q8AccMax {
			continue
		}
		var sumW int64
		for _, v := range row {
			w8 := math.Abs(math.Round(math.Ldexp(v, k)))
			sumW += int64(w8)
		}
		if int64(b)+sumW*inMaxQ <= q8AccMax {
			return k, nil
		}
	}
	return 0, fmt.Errorf("bias magnitude %g exceeds the int32 accumulator budget", bias)
}

// quantize8Network converts one member and computes its proven output
// error bound from the exact per-row rounding residuals (see the
// package comment for the recurrence).
func quantize8Network(n *Network) ([]q8Layer, float64, error) {
	last := len(n.sizes) - 1
	if n.sizes[last] != 1 {
		return nil, 0, fmt.Errorf("output width %d (int8 engine needs 1)", n.sizes[last])
	}
	for l, a := range n.acts {
		if l == last-1 {
			if a != Linear {
				return nil, 0, fmt.Errorf("output activation %v (int8 engine needs linear)", a)
			}
		} else if a != Sigmoid {
			return nil, 0, fmt.Errorf("hidden activation %v (int8 engine needs sigmoid)", a)
		}
	}

	layers := make([]q8Layer, len(n.weights))
	// errIn[i] is the proven error of incoming unit i; inMax its
	// magnitude cap; inMaxQ the widest Q14 operand the row can see.
	errIn := make([]float64, n.sizes[0])
	for i := range errIn {
		errIn[i] = math.Ldexp(1, -qFrac) // input clamp + rounding, incl. the domain edge
	}
	inMax := QuantInputHi
	inMaxQ := int64(1) << (qFrac + 1) // |Q14(−2)| = 32768
	cLut := math.Ldexp(1, -(qLutBits+3)) + math.Ldexp(1, -(qFrac+1)) + sigTail
	var outErr float64
	for l, w := range n.weights {
		in, out := n.sizes[l], n.sizes[l+1]
		for _, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, fmt.Errorf("layer %d: non-finite weight", l)
			}
		}
		ql := q8Layer{
			in:     in,
			out:    out,
			w:      make([]int8, in*out),
			b:      make([]int32, out),
			shift:  make([]uint8, out),
			linear: n.acts[l] == Linear,
		}
		errOut := make([]float64, out)
		for j := 0; j < out; j++ {
			row := w[j*(in+1) : (j+1)*(in+1)]
			k, err := q8RowScale(row[:in], row[in], inMaxQ)
			if err != nil {
				return nil, 0, fmt.Errorf("layer %d row %d: %w", l, j, err)
			}
			scale := math.Ldexp(1, k)
			biasScale := math.Ldexp(1, k+qFrac)
			ql.shift[j] = uint8(k + qFrac - qLutBits)
			if j == 0 {
				ql.invOut = 1 / biasScale
			}
			// pre_j = R_j·Xmax + Σ_i (|w_ji|+r_ji)·e_i + ρ_j with the
			// residuals R_j, r_ji, ρ_j measured off the actual rounding.
			pre := 0.0
			for i := 0; i < in; i++ {
				w8 := math.Round(row[i] * scale)
				ql.w[j*in+i] = int8(w8)
				r := math.Abs(row[i] - w8/scale)
				pre += r*inMax + (math.Abs(row[i])+r)*errIn[i]
			}
			b32 := math.Round(row[in] * biasScale)
			ql.b[j] = int32(b32)
			pre += math.Abs(row[in] - b32/biasScale)
			if ql.linear {
				errOut[j] = pre
			} else {
				errOut[j] = pre/4 + cLut
			}
		}
		layers[l] = ql

		if ql.linear {
			outErr = errOut[0]
		} else {
			errIn = errOut
			inMax = 1
			inMaxQ = qOne
		}
	}
	return layers, outErr, nil
}

// Name implements Engine.
func (q *Quantized8Ensemble) Name() string { return EngineInt8 }

// ErrorBound implements Engine.
func (q *Quantized8Ensemble) ErrorBound() float64 { return q.bound }

// InputDim returns the feature width the engine expects.
func (q *Quantized8Ensemble) InputDim() int { return q.inDim }

// NewScratch implements Engine.
func (q *Quantized8Ensemble) NewScratch(capacity int) EngineScratch {
	if capacity < 1 {
		capacity = 1
	}
	return &Quant8Scratch{
		capacity: capacity,
		qin:      make([]int16, capacity*q.inDim),
		bufA:     make([]int16, capacity*q.maxWidth),
		bufB:     make([]int16, capacity*q.maxWidth),
		sum:      make([]float64, capacity),
	}
}

// quantizeInputs fills s.qin from count sample-major float features.
func (q *Quantized8Ensemble) quantizeInputs(xs []float64, count int, s *Quant8Scratch) {
	n := count * q.inDim
	qin := s.qin[:n]
	for i, x := range xs[:n] {
		qin[i] = QuantizeQ14(x)
	}
}

// PredictBatch implements Engine: quantise the inputs, then run the
// fixed-point forward pass.
func (q *Quantized8Ensemble) PredictBatch(xs []float64, count int, s EngineScratch, dst []float64) {
	qs := s.(*Quant8Scratch)
	q.quantizeInputs(xs, count, qs)
	q.PredictBatchQ14(qs.qin, count, qs, dst)
}

// PredictBatchBounds implements Engine: the quantised score bracketed by
// the proven bound contains the reference prediction.
func (q *Quantized8Ensemble) PredictBatchBounds(xs []float64, count int, s EngineScratch, lb, ub []float64) {
	qs := s.(*Quant8Scratch)
	q.quantizeInputs(xs, count, qs)
	q.PredictBatchBoundsQ14(qs.qin, count, qs, lb, ub)
}

// PredictBatchQ14 is the allocation-free fast path for callers that
// already hold Q14-quantised features: count samples, sample-major,
// stride InputDim.
func (q *Quantized8Ensemble) PredictBatchQ14(qxs []int16, count int, es EngineScratch, dst []float64) {
	if count == 0 {
		return
	}
	s := es.(*Quant8Scratch)
	if count > s.capacity {
		panic("ann: quant8 batch exceeds scratch capacity")
	}
	sum := s.sum[:count]
	for b := range sum {
		sum[b] = 0
	}
	for _, layers := range q.members {
		q.forwardMember(layers, qxs, count, s, sum)
	}
	inv := 1 / float64(len(q.members))
	for b := 0; b < count; b++ {
		dst[b] = sum[b] * inv
	}
}

// PredictBatchBoundsQ14 is the Q14 fast path of PredictBatchBounds.
func (q *Quantized8Ensemble) PredictBatchBoundsQ14(qxs []int16, count int, s EngineScratch, lb, ub []float64) {
	q.PredictBatchQ14(qxs, count, s, lb[:count])
	for b := 0; b < count; b++ {
		v := lb[b]
		lb[b] = v - q.bound
		ub[b] = v + q.bound
	}
}

// forwardMember runs one member over the block, accumulating its raw
// output into sum. cur/nxt ping-pong through the scratch int16 buffers;
// the int32 integer accumulation is exact at each row's scale
// 2^(k_j+qFrac) — overflow is excluded at quantise time.
func (q *Quantized8Ensemble) forwardMember(layers []q8Layer, qxs []int16, count int, s *Quant8Scratch, sum []float64) {
	lut := q.lut
	cur, nxt := qxs, s.bufA
	for _, l := range layers {
		if l.linear {
			// Single-output linear layer: rescale straight into the
			// ensemble accumulator.
			w := l.w
			bias := l.b[0]
			inv := l.invOut
			for b := 0; b < count; b++ {
				src := cur[b*l.in : b*l.in+l.in]
				sum[b] += float64(bias+dotQ8(w[:l.in], src)) * inv
			}
			return
		}
		for b := 0; b < count; b++ {
			src := cur[b*l.in : b*l.in+l.in]
			row := nxt[b*l.out : b*l.out+l.out]
			for j := 0; j < l.out; j++ {
				acc := l.b[j] + dotQ8(l.w[j*l.in:(j+1)*l.in], src)
				cell := int(acc>>l.shift[j]) + qLutSize/2
				if cell < 0 {
					cell = 0
				} else if cell >= qLutSize {
					cell = qLutSize - 1
				}
				row[j] = lut[cell]
			}
		}
		if &nxt[0] == &s.bufA[0] {
			cur, nxt = s.bufA, s.bufB
		} else {
			cur, nxt = s.bufB, s.bufA
		}
	}
}

// dotQ8 is the widening int8×int16 inner product: four independent
// int32 accumulator chains, the shape a vector unit retires as packed
// multiply-adds.
func dotQ8(w []int8, x []int16) int32 {
	var a0, a1, a2, a3 int32
	i := 0
	for ; i+4 <= len(w); i += 4 {
		a0 += int32(w[i]) * int32(x[i])
		a1 += int32(w[i+1]) * int32(x[i+1])
		a2 += int32(w[i+2]) * int32(x[i+2])
		a3 += int32(w[i+3]) * int32(x[i+3])
	}
	for ; i < len(w); i++ {
		a0 += int32(w[i]) * int32(x[i])
	}
	return a0 + a1 + a2 + a3
}
