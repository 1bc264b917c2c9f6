package ann

import (
	"fmt"
	"math"
	"sync"
)

// Int16 fixed-point inference engine.
//
// QuantizeEnsemble converts a trained ensemble (sigmoid hidden layers,
// single linear output — the paper topology) into int16 weights with a
// per-layer power-of-two scale, int64 bias/accumulators, and a shared
// Q14 sigmoid lookup table. The forward pass is then pure integer
// multiply-accumulate plus table lookups: no math.Exp, no division.
//
// The engine is only useful because its deviation from the float64
// reference is *proven*, not estimated. Every error source is bounded at
// quantise time from the actual weights and composed through the layers
// (see quantizeNetwork); the top-M sweep widens its quantised screening
// scores by the resulting bound (see QuantSweeper), so pruning against
// them can never drop a config the exact engine would have kept.
//
// Error model, per member (all in the raw standardised output space):
//
//	input quantisation   |x − q/2^14| ≤ 2^-14 for x ∈ [QuantInputLo, QuantInputHi]
//	weight quantisation  |w − wq/2^k| ≤ 2^-(k+1)   (round to nearest)
//	bias quantisation    |b − bq/2^(k+14)| ≤ 2^-(k+15)
//	pre-activation       E_j = Σ_i [2^-(k+1)·Xmax + (|w_ji| + 2^-(k+1))·e_in] + 2^-(k+15)
//	                     (integer accumulation itself is exact)
//	sigmoid via LUT      e_out = E/4 + 2^-(qLutBits+3) + 2^-15 + σ(qLutLo)
//	                     (Lipschitz ¼ · pre-act error; half-cell midpoint
//	                     step through Lipschitz ¼; Q14 rounding of the
//	                     stored entry; clamp tail beyond the grid)
//	linear output        E_out exactly (int64→float64 and the power-of-two
//	                     rescale are exact)
//
// Hidden activations re-enter the next layer with Xmax = 1 and
// e_in = e_out. The ensemble mean's error is at most the worst member's;
// a 1e-9 absolute slack absorbs the reference path's own float64
// rounding versus real arithmetic.
//
// That is the engine's ErrorBound: a worst case over every input in the
// domain. A full-space sweep knows its inputs — input i takes only the
// levels x_i(v) of one parameter, with Q14 images xq_i(v), or one fixed
// tail value — so NewOrderedSweeper proves a narrower sweep bound from the
// same error sources, evaluated on the actual weights (w, b float64;
// wq, bq int16 at scales k and k₂) instead of their rounding limits:
//
//	pre-activation  E_j = |b_j − bq_j/2^(k+14)|
//	                      + Σ_i max_v |w_ji·x_i(v) − wq_ji·xq_i(v)/2^(k+14)|
//	hidden output   h_j = E_j/4 + 2^-(qLutBits+3) + 2^-15 + σ(qLutLo)
//	member output   out = |b₂ − bq₂/2^(k₂+14)|
//	                      + Σ_j (|w₂_j − wq₂_j/2^k₂| + |wq₂_j|/2^k₂ · h_j)
//	                (|σ| ≤ 1 carries the output weight's own error)
//	sweep bound     min((1/K)·Σ_members out + 1e-9, ErrorBound)
//
// A single-layer linear member's out is its E alone; a member deeper
// than the paper topology keeps the engine bound. The per-input maximum
// covers Q14 rounding and saturation alike, since it compares the
// products the two engines actually form.

const (
	// qFrac is the fixed-point fraction width for inputs, hidden
	// activations and sigmoid table entries (Q14: value = q / 2^14).
	qFrac = 14
	// qOne is the Q14 representation of 1.0.
	qOne = 1 << qFrac
	// qLutBits sets the sigmoid grid step 2^-qLutBits; with the [-16,16)
	// domain the table is 32·2^qLutBits entries (16 KiB at 8 — it must
	// stay L1-resident, the sweep hammers it).
	qLutBits = 8
	// qLutLo/qLutHi bound the sigmoid grid; σ saturates to within
	// ~1.1e-7 outside.
	qLutLo = -16.0
	qLutHi = 16.0
	// qLutSize is the entry count of the sigmoid table.
	qLutSize = int((qLutHi - qLutLo) * (1 << qLutBits))
	// qMaxShift caps the per-layer weight scale exponent; with all-zero
	// or denormal-tiny layers the search for the largest usable scale
	// would otherwise run away.
	qMaxShift = 24

	// QuantInputLo and QuantInputHi delimit the input domain of the int16
	// engine: the advertised error bound holds for features inside
	// [QuantInputLo, QuantInputHi]. Inputs outside are clamped, which is
	// safe but unbounded. Every feature the tuning schema produces —
	// log-normalised parameters in [0,1] and device descriptors in
	// [0, ~1.3] — sits comfortably inside.
	QuantInputLo = -2.0
	QuantInputHi = 2.0
)

// sigTail is σ(qLutLo): the residual mass the LUT clamp can miss.
var sigTail = 1.0 / (1.0 + math.Exp(-qLutLo))

var (
	qLutOnce sync.Once
	qLut     []int16
)

// sigmoidLut returns the shared Q14 sigmoid table: entry i holds
// round(σ(m)·2^14) for m the midpoint of grid cell i over [qLutLo,
// qLutHi). Midpoint sampling halves the worst-case step error versus
// sampling cell edges.
func sigmoidLut() []int16 {
	qLutOnce.Do(func() {
		tab := make([]int16, qLutSize)
		step := 1.0 / float64(int(1)<<qLutBits)
		for i := range tab {
			m := qLutLo + (float64(i)+0.5)*step
			tab[i] = int16(math.Round(qOne / (1.0 + math.Exp(-m))))
		}
		qLut = tab
	})
	return qLut
}

// QuantizeQ14 rounds x to the nearest Q14 fixed-point value, saturating
// at the int16 range. The tuning package mirrors this exact rounding in
// its precomputed feature tables; the two must stay in lockstep.
func QuantizeQ14(x float64) int16 {
	v := math.Round(x * qOne)
	if !(v >= -32768) { // also catches NaN deterministically
		return -32768
	}
	if v > 32767 {
		return 32767
	}
	return int16(v)
}

// qLayer is one quantised weight layer.
type qLayer struct {
	in, out int
	// w holds in*out weights row-major by output neuron at scale 2^k
	// (bias is NOT interleaved — it lives in b at accumulation scale).
	w []int16
	// b holds per-output biases at scale 2^(k+qFrac), the accumulator's
	// own scale, so the forward pass seeds the accumulator with it
	// directly.
	b []int64
	// shift maps an accumulator at scale 2^(k+qFrac) onto the sigmoid
	// grid: cell = acc >> shift, with shift = k + qFrac − qLutBits.
	// Arithmetic shift floors, matching the grid-cell convention.
	shift uint
	// invOut rescales the output layer's accumulator to a float64 value:
	// 1 / 2^(k+qFrac). Power of two, so the multiply is exact.
	invOut float64
	linear bool
}

// QuantizedEnsemble is the int16 engine over one trained ensemble. It is
// immutable after QuantizeEnsemble and safe for concurrent use with
// distinct scratches.
type QuantizedEnsemble struct {
	members  [][]qLayer
	lut      []int16
	bound    float64
	inDim    int
	maxWidth int
}

// QuantScratch is the int16 engine's per-goroutine buffer set.
type QuantScratch struct {
	capacity int
	bufA     []int16
	bufB     []int16
	sum      []float64
}

// QuantizeEnsemble builds the int16 engine. It fails — rather than
// degrade silently — when the topology has activations the error proof
// does not cover, when the output is not a single value, or when weight
// magnitudes have diverged past what int16 can hold.
func QuantizeEnsemble(e *Ensemble) (*QuantizedEnsemble, error) {
	if e == nil || len(e.nets) == 0 {
		return nil, fmt.Errorf("ann: quantize: empty ensemble")
	}
	q := &QuantizedEnsemble{
		members: make([][]qLayer, len(e.nets)),
		inDim:   e.nets[0].sizes[0],
		lut:     sigmoidLut(),
	}
	for i, n := range e.nets {
		layers, memberBound, err := quantizeNetwork(n)
		if err != nil {
			return nil, fmt.Errorf("ann: quantize member %d: %w", i, err)
		}
		if n.sizes[0] != q.inDim {
			return nil, fmt.Errorf("ann: quantize member %d: input width %d != %d", i, n.sizes[0], q.inDim)
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

// quantizeNetwork converts one member and computes its proven output
// error bound from the actual weights (see the package comment for the
// recurrence).
func quantizeNetwork(n *Network) ([]qLayer, float64, error) {
	last := len(n.sizes) - 1
	if n.sizes[last] != 1 {
		return nil, 0, fmt.Errorf("output width %d (int16 engine needs 1)", n.sizes[last])
	}
	for l, a := range n.acts {
		if l == last-1 {
			if a != Linear {
				return nil, 0, fmt.Errorf("output activation %v (int16 engine needs linear)", a)
			}
		} else if a != Sigmoid {
			return nil, 0, fmt.Errorf("hidden activation %v (int16 engine needs sigmoid)", a)
		}
	}

	layers := make([]qLayer, len(n.weights))
	inErr := math.Ldexp(1, -qFrac) // input clamp + rounding, incl. the x = QuantInputHi edge
	inMax := QuantInputHi
	var outErr float64
	for l, w := range n.weights {
		in, out := n.sizes[l], n.sizes[l+1]

		maxAbs := 0.0
		for _, v := range w {
			av := math.Abs(v)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, fmt.Errorf("layer %d: non-finite weight", l)
			}
			if av > maxAbs {
				maxAbs = av
			}
		}
		if maxAbs > 32767 {
			return nil, 0, fmt.Errorf("layer %d: weight magnitude %g exceeds int16 range (model diverged?)", l, maxAbs)
		}
		k := 0
		for k < qMaxShift && math.Ldexp(maxAbs, k+1) <= 32767 {
			k++
		}

		scale := math.Ldexp(1, k)
		biasScale := math.Ldexp(1, k+qFrac)
		ql := qLayer{
			in:     in,
			out:    out,
			w:      make([]int16, in*out),
			b:      make([]int64, out),
			invOut: 1 / biasScale,
			linear: n.acts[l] == Linear,
		}
		if !ql.linear {
			ql.shift = uint(k + qFrac - qLutBits)
		}

		wErr := math.Ldexp(1, -(k + 1))
		bErr := math.Ldexp(1, -(k + qFrac + 1))
		worst := 0.0
		for j := 0; j < out; j++ {
			row := w[j*(in+1) : (j+1)*(in+1)]
			sumAbs := 0.0
			for i := 0; i < in; i++ {
				ql.w[j*in+i] = int16(math.Round(row[i] * scale))
				sumAbs += math.Abs(row[i])
			}
			ql.b[j] = int64(math.Round(row[in] * biasScale))
			pre := float64(in)*wErr*inMax + (sumAbs+float64(in)*wErr)*inErr + bErr
			if pre > worst {
				worst = pre
			}
		}
		layers[l] = ql

		if ql.linear {
			outErr = worst
		} else {
			inErr = worst/4 + math.Ldexp(1, -(qLutBits+3)) + math.Ldexp(1, -(qFrac+1)) + sigTail
			inMax = 1
		}
	}
	return layers, outErr, nil
}

// ErrorBound returns the proven worst-case |int16 − reference| on the
// raw ensemble output for in-domain inputs.
func (q *QuantizedEnsemble) ErrorBound() float64 { return q.bound }

// InputDim returns the feature width the engine expects.
func (q *QuantizedEnsemble) InputDim() int { return q.inDim }

// NewQuantScratch allocates int16-engine buffers for blocks of up to
// capacity samples.
func (q *QuantizedEnsemble) NewQuantScratch(capacity int) *QuantScratch {
	if capacity < 1 {
		capacity = 1
	}
	return &QuantScratch{
		capacity: capacity,
		bufA:     make([]int16, capacity*q.maxWidth),
		bufB:     make([]int16, capacity*q.maxWidth),
		sum:      make([]float64, capacity),
	}
}

// PredictBatchQ14 is the int16 forward pass over Q14-quantised features
// (see tuning.FeatureSchema's Q14 encoder): count samples, sample-major,
// stride InputDim. No view serves it: a bound int16 view scores from
// its screen's level tables (IndexScorer), bit-identical to this pass,
// which stays the reference the sweeper and scorer tests compare with.
func (q *QuantizedEnsemble) PredictBatchQ14(qxs []int16, count int, s *QuantScratch, dst []float64) {
	if count == 0 {
		return
	}
	if count > s.capacity {
		panic("ann: quant batch exceeds scratch capacity")
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

// PredictBatchBoundsQ14 brackets the reference prediction of count
// pre-quantised samples: the quantised score widened by ErrorBound on
// both sides. It is the from-scratch reference the incremental
// QuantSweeper reproduces bit for bit.
func (q *QuantizedEnsemble) PredictBatchBoundsQ14(qxs []int16, count int, s *QuantScratch, lb, ub []float64) {
	q.PredictBatchQ14(qxs, count, s, lb[:count])
	for b := 0; b < count; b++ {
		v := lb[b]
		lb[b] = v - q.bound
		ub[b] = v + q.bound
	}
}

// forwardMember runs one member over the block, accumulating its raw
// output into sum. cur/nxt ping-pong through the scratch int16 buffers;
// the integer accumulation is exact at scale 2^(k+qFrac).
func (q *QuantizedEnsemble) forwardMember(layers []qLayer, qxs []int16, count int, s *QuantScratch, sum []float64) {
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
				sum[b] += float64(bias+dotQ(w[:l.in], src)) * inv
			}
			return
		}
		shift := l.shift
		for b := 0; b < count; b++ {
			src := cur[b*l.in : b*l.in+l.in]
			row := nxt[b*l.out : b*l.out+l.out]
			for j := 0; j < l.out; j++ {
				acc := l.b[j] + dotQ(l.w[j*l.in:(j+1)*l.in], src)
				cell := int(acc>>shift) + qLutSize/2
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

// dotQ is the fixed-point inner product: four independent accumulator
// chains keep the integer multiply pipeline busy, mirroring preActBlock.
func dotQ(w, x []int16) int64 {
	var a0, a1, a2, a3 int64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		a0 += int64(w[i]) * int64(x[i])
		a1 += int64(w[i+1]) * int64(x[i+1])
		a2 += int64(w[i+2]) * int64(x[i+2])
		a3 += int64(w[i+3]) * int64(x[i+3])
	}
	for ; i < len(w); i++ {
		a0 += int64(w[i]) * int64(x[i])
	}
	return a0 + a1 + a2 + a3
}
