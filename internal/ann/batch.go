package ann

import (
	"fmt"
	"math"
)

// BatchScratch holds the forward buffers for predicting a block of up to
// capacity samples through one network without allocating. Like Scratch,
// it is single-goroutine state: concurrent predictors each need their own.
type BatchScratch struct {
	capacity int
	// activations[l] is layer l's output for the whole block, sample-major
	// ([sample*sizes[l]+neuron]); activations[0] is the input block.
	activations [][]float64
}

// NewBatchScratch allocates batch buffers matching the network topology
// for blocks of up to capacity samples.
func (n *Network) NewBatchScratch(capacity int) *BatchScratch {
	if capacity < 1 {
		capacity = 1
	}
	s := &BatchScratch{
		capacity:    capacity,
		activations: make([][]float64, len(n.sizes)),
	}
	for i, sz := range n.sizes {
		s.activations[i] = make([]float64, capacity*sz)
	}
	return s
}

// PredictBatch runs count samples through the network and writes the
// outputs to dst[:count]. xs is the sample-major input block
// (xs[b*inputs+i] is feature i of sample b). The per-sample results are
// bit-identical to Predict: every dot product accumulates bias first and
// then the inputs in order, exactly like the scalar forward pass — the
// batching only restructures the loops (layer-major, weight rows hoisted
// out of the sample loop) so the block reuses buffers and weight rows
// instead of paying per-sample call and slicing overhead.
//
// It panics on shape mismatches and on networks with more than one output
// neuron, matching Predict.
func (n *Network) PredictBatch(xs []float64, count int, s *BatchScratch, dst []float64) {
	inputs := n.sizes[0]
	outputs := n.sizes[len(n.sizes)-1]
	switch {
	case outputs != 1:
		panic(fmt.Sprintf("ann: PredictBatch on network with %d outputs", outputs))
	case count < 0 || count > s.capacity:
		panic(fmt.Sprintf("ann: PredictBatch count %d outside scratch capacity %d", count, s.capacity))
	case len(xs) < count*inputs:
		panic(fmt.Sprintf("ann: PredictBatch input block has %d values, %d samples need %d", len(xs), count, count*inputs))
	case len(dst) < count:
		panic(fmt.Sprintf("ann: PredictBatch dst holds %d values, need %d", len(dst), count))
	}
	if count == 0 {
		return
	}
	for l, w := range n.weights {
		in := n.sizes[l]
		out := n.sizes[l+1]
		src := s.activations[l]
		if l == 0 {
			src = xs // read the caller's block directly; no copy
		}
		res := s.activations[l+1]
		preActBlock(w, in, out, count, src, res)
		applyBlock(n.acts[l], res[:count*out])
	}
	copy(dst[:count], s.activations[len(s.activations)-1][:count])
}

// preActBlock computes the pre-activations of one layer for a block of
// count sample-major inputs: res[b*out+j] = bias_j + Σ_i w_ji*src[b*in+i].
// Four samples advance together: their accumulator chains are
// independent, so the FP adds overlap instead of serialising on add
// latency. Each chain still accumulates bias first and then the inputs in
// order, so every sample's sum is bit-identical to the scalar forward
// pass.
func preActBlock(w []float64, in, out, count int, src, res []float64) {
	cols := in + 1
	for j := 0; j < out; j++ {
		row := w[j*cols : j*cols+cols : j*cols+cols]
		bias := row[in]
		b := 0
		for ; b+4 <= count; b += 4 {
			x0 := src[(b+0)*in : (b+1)*in : (b+1)*in]
			x1 := src[(b+1)*in : (b+2)*in : (b+2)*in]
			x2 := src[(b+2)*in : (b+3)*in : (b+3)*in]
			x3 := src[(b+3)*in : (b+4)*in : (b+4)*in]
			s0, s1, s2, s3 := bias, bias, bias, bias
			for i, r := range row[:in] {
				s0 += r * x0[i]
				s1 += r * x1[i]
				s2 += r * x2[i]
				s3 += r * x3[i]
			}
			res[(b+0)*out+j] = s0
			res[(b+1)*out+j] = s1
			res[(b+2)*out+j] = s2
			res[(b+3)*out+j] = s3
		}
		for ; b < count; b++ {
			x := src[b*in : b*in+in : b*in+in]
			sum := bias
			for i, xi := range x {
				sum += row[i] * xi
			}
			res[b*out+j] = sum
		}
	}
}

// applyBlock applies the activation over a contiguous pre-activation
// buffer in place. Iterations are independent, so the transcendental
// calls pipeline instead of serialising behind each dot product. The
// expressions match Activation.apply exactly, keeping results
// bit-identical to the scalar path.
func applyBlock(a Activation, vals []float64) {
	switch a {
	case Sigmoid:
		// Two passes: the transcendental first, then a pure division loop.
		// Keeping the divisions out of the call-bearing loop lets them
		// pipeline at divider throughput.
		for t, v := range vals {
			vals[t] = math.Exp(-v)
		}
		for t, v := range vals {
			vals[t] = 1 / (1 + v)
		}
	case Tanh:
		for t, v := range vals {
			vals[t] = math.Tanh(v)
		}
	case ReLU:
		for t, v := range vals {
			if v < 0 {
				vals[t] = 0
			}
		}
	default: // Linear
	}
}

// BatchPredictScratch holds per-goroutine buffers for batched ensemble
// prediction.
type BatchPredictScratch struct {
	capacity  int
	scratches []*BatchScratch
	member    []float64 // one member's block outputs
	sum       []float64 // running sum across members
}

// NewBatchScratch allocates batched prediction buffers for the ensemble
// for blocks of up to capacity samples.
func (e *Ensemble) NewBatchScratch(capacity int) *BatchPredictScratch {
	if capacity < 1 {
		capacity = 1
	}
	ps := &BatchPredictScratch{
		capacity:  capacity,
		scratches: make([]*BatchScratch, len(e.nets)),
		member:    make([]float64, capacity),
		sum:       make([]float64, capacity),
	}
	for i, n := range e.nets {
		ps.scratches[i] = n.NewBatchScratch(capacity)
	}
	return ps
}

// PredictBatch writes the ensemble prediction (mean of the member
// networks' outputs) for count sample-major samples in xs to dst[:count].
// Each sample's member outputs are summed in member order and divided
// once, exactly like Predict, so the results are bit-identical to the
// scalar path. Safe for concurrent use with distinct scratches.
func (e *Ensemble) PredictBatch(xs []float64, count int, ps *BatchPredictScratch, dst []float64) {
	if count < 0 || count > ps.capacity {
		panic(fmt.Sprintf("ann: PredictBatch count %d outside scratch capacity %d", count, ps.capacity))
	}
	if len(dst) < count {
		panic(fmt.Sprintf("ann: PredictBatch dst holds %d values, need %d", len(dst), count))
	}
	sum := ps.sum[:count]
	for b := range sum {
		sum[b] = 0
	}
	for i, n := range e.nets {
		n.PredictBatch(xs, count, ps.scratches[i], ps.member)
		for b := 0; b < count; b++ {
			sum[b] += ps.member[b]
		}
	}
	k := float64(len(e.nets))
	for b := 0; b < count; b++ {
		dst[b] = sum[b] / k
	}
}
