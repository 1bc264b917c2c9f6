package ann

import (
	"fmt"
	"math"
	"math/rand"
)

// Network is a fully connected feed-forward neural network. Layer l maps
// sizes[l] inputs to sizes[l+1] outputs through a weight matrix with a
// folded-in bias column.
//
// Networks are not safe for concurrent training (Train allocates its own
// block buffers per call and updates the weights in place); Predict is
// safe for concurrent use as long as each goroutine uses its own scratch
// (see NewScratch).
type Network struct {
	sizes   []int
	acts    []Activation // one per weight layer
	weights [][]float64  // [layer][(in+1)*out], row-major by output neuron
}

// New creates a network with the given layer sizes (inputs first, output
// last) and activations (one per weight layer; typically Sigmoid hidden,
// Linear output). Weights are initialized uniformly in
// ±1/sqrt(fan_in) from rng.
func New(rng *rand.Rand, sizes []int, acts ...Activation) (*Network, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("ann: need at least input and output layer, got %d sizes", len(sizes))
	}
	if len(acts) != len(sizes)-1 {
		return nil, fmt.Errorf("ann: %d layer sizes need %d activations, got %d", len(sizes), len(sizes)-1, len(acts))
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("ann: non-positive layer size in %v", sizes)
		}
	}
	n := &Network{
		sizes:   append([]int(nil), sizes...),
		acts:    append([]Activation(nil), acts...),
		weights: make([][]float64, len(sizes)-1),
	}
	for l := range n.weights {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, (in+1)*out)
		scale := 1 / math.Sqrt(float64(in))
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * scale
		}
		n.weights[l] = w
	}
	return n, nil
}

// MustNew is New but panics on error; for tests and fixed topologies.
func MustNew(rng *rand.Rand, sizes []int, acts ...Activation) *Network {
	n, err := New(rng, sizes, acts...)
	if err != nil {
		panic(err)
	}
	return n
}

// Sizes returns the layer sizes.
func (n *Network) Sizes() []int { return append([]int(nil), n.sizes...) }

// NumWeights returns the total parameter count.
func (n *Network) NumWeights() int {
	total := 0
	for _, w := range n.weights {
		total += len(w)
	}
	return total
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := &Network{
		sizes:   append([]int(nil), n.sizes...),
		acts:    append([]Activation(nil), n.acts...),
		weights: make([][]float64, len(n.weights)),
	}
	for l, w := range n.weights {
		c.weights[l] = append([]float64(nil), w...)
	}
	return c
}

// Scratch holds per-goroutine forward buffers so that single-sample
// prediction never allocates in the hot path. Training keeps its own
// block buffers.
type Scratch struct {
	// activations[l] is the output of layer l (activations[0] = input).
	activations [][]float64
}

// NewScratch allocates buffers matching the network topology.
func (n *Network) NewScratch() *Scratch {
	s := &Scratch{
		activations: make([][]float64, len(n.sizes)),
	}
	for i, sz := range n.sizes {
		s.activations[i] = make([]float64, sz)
	}
	return s
}

// forward runs the network on x, leaving every layer's activation in
// scratch, and returns the output layer's activation slice (not a copy).
func (n *Network) forward(x []float64, s *Scratch) []float64 {
	copy(s.activations[0], x)
	for l, w := range n.weights {
		in := s.activations[l]
		out := s.activations[l+1]
		cols := len(in) + 1
		act := n.acts[l]
		for j := range out {
			row := w[j*cols : (j+1)*cols]
			sum := row[len(in)] // bias
			for i, xi := range in {
				sum += row[i] * xi
			}
			out[j] = act.apply(sum)
		}
	}
	return s.activations[len(s.activations)-1]
}

// Predict runs the network on the feature vector x and returns its single
// output. It panics if the network has more than one output neuron.
func (n *Network) Predict(x []float64, s *Scratch) float64 {
	out := n.forward(x, s)
	if len(out) != 1 {
		panic(fmt.Sprintf("ann: Predict on network with %d outputs", len(out)))
	}
	return out[0]
}
