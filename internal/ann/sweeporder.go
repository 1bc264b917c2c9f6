package ann

import (
	"fmt"
	"math"
)

// SweepOrder is the order a sweeper walks a space's positions in, and
// the maps between the two numberings of the space's configurations it
// implies. A space index decodes its digits in declaration order with
// the last position fastest (the layout of tuning.Space.At); a sweep
// index decodes them in the sweep order, with the sweep's last position
// fastest. Both number the same configurations, so SpaceIndex and
// SweepIndex are inverse bijections of [0, size).
type SweepOrder struct {
	// perm[p] is the space position the sweep walks at its position p.
	perm []int
	// arity[p] is the level count of sweep position p, spaceArity[c] that
	// of space position c.
	arity, spaceArity []int64
	// spaceStride[p] is the space-index weight of sweep position p's
	// digit; sweepStride[c] is the sweep-index weight of space position
	// c's digit.
	spaceStride, sweepStride []int64
}

// NewSweepOrder returns the order that walks a space whose position c
// has arity[c] levels with position perm[p] at sweep position p. perm
// must be a permutation of the positions.
func NewSweepOrder(arity []int64, perm []int) (*SweepOrder, error) {
	P := len(arity)
	if len(perm) != P {
		return nil, fmt.Errorf("ann: sweep order over %d positions, space has %d", len(perm), P)
	}
	seen := make([]bool, P)
	for _, c := range perm {
		if c < 0 || c >= P || seen[c] {
			return nil, fmt.Errorf("ann: sweep order %v is not a permutation of %d positions", perm, P)
		}
		seen[c] = true
	}
	o := &SweepOrder{
		perm:        append([]int(nil), perm...),
		arity:       make([]int64, P),
		spaceArity:  append([]int64(nil), arity...),
		spaceStride: make([]int64, P),
		sweepStride: make([]int64, P),
	}
	space := make([]int64, P) // space[c]: the space-index weight of position c's digit
	size := int64(1)
	for c := P - 1; c >= 0; c-- {
		if arity[c] < 1 {
			return nil, fmt.Errorf("ann: sweep order position %d has no levels", c)
		}
		if size > (1<<62)/arity[c] {
			return nil, fmt.Errorf("ann: sweep order space size overflows")
		}
		space[c] = size
		size *= arity[c]
	}
	stride := int64(1)
	for p := P - 1; p >= 0; p-- {
		c := perm[p]
		o.arity[p] = arity[c]
		o.spaceStride[p] = space[c]
		o.sweepStride[c] = stride
		stride *= arity[c]
	}
	return o, nil
}

// Perm returns the order: the sweep's position p is the space's
// position Perm()[p].
func (o *SweepOrder) Perm() []int { return append([]int(nil), o.perm...) }

// Arity returns the level counts of the sweep's positions, in sweep
// order.
func (o *SweepOrder) Arity() []int64 { return append([]int64(nil), o.arity...) }

// SpaceIndex returns the space index of the configuration at sweep
// index idx.
func (o *SweepOrder) SpaceIndex(idx int64) int64 {
	var out int64
	for p := len(o.arity) - 1; p >= 0; p-- {
		out += idx % o.arity[p] * o.spaceStride[p]
		idx /= o.arity[p]
	}
	return out
}

// SweepIndex returns the sweep index of the configuration at space
// index idx.
func (o *SweepOrder) SweepIndex(idx int64) int64 {
	var out int64
	for c := len(o.spaceArity) - 1; c >= 0; c-- {
		out += idx % o.spaceArity[c] * o.sweepStride[c]
		idx /= o.spaceArity[c]
	}
	return out
}

// InputInfluence returns the weight influence of each input column i of
// the float64 ensemble: the sum over members of Σ_j |W0[j,i]|·|W1[j]| for
// a member with one hidden layer (W1[j] the output weights of hidden unit
// j, summed in magnitude over the outputs), of Σ_j |W0[j,i]| for a
// member without a hidden layer or with more than one. The top-M sweep
// order breaks ties in arity on it.
func (e *Ensemble) InputInfluence() []float64 {
	if len(e.nets) == 0 {
		return nil
	}
	infl := make([]float64, e.nets[0].sizes[0])
	for _, n := range e.nets {
		in, hidden := n.sizes[0], n.sizes[1]
		w0 := n.weights[0]
		for j := 0; j < hidden; j++ {
			gain := 1.0
			if len(n.weights) == 2 {
				gain = 0
				for k := 0; k < n.sizes[2]; k++ {
					gain += math.Abs(n.weights[1][k*(hidden+1)+j])
				}
			}
			for i := range infl {
				infl[i] += math.Abs(w0[j*(in+1)+i]) * gain
			}
		}
	}
	return infl
}
