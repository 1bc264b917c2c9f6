package ann

import "fmt"

// NetworkState is the serialisable form of a Network: topology,
// activation names and raw weights. It contains everything needed to
// reconstruct a network that predicts bit-identically.
type NetworkState struct {
	Sizes   []int
	Acts    []string
	Weights [][]float64
}

// State exports the network's full state (deep copy).
func (n *Network) State() NetworkState {
	st := NetworkState{
		Sizes:   append([]int(nil), n.sizes...),
		Acts:    make([]string, len(n.acts)),
		Weights: make([][]float64, len(n.weights)),
	}
	for i, a := range n.acts {
		st.Acts[i] = a.String()
	}
	for l, w := range n.weights {
		st.Weights[l] = append([]float64(nil), w...)
	}
	return st
}

// networkFromState reconstructs a network from exported state,
// validating the topology against the weight shapes. The network takes
// st's weight slices as its own (see EnsembleFromState).
func networkFromState(st NetworkState) (*Network, error) {
	if len(st.Sizes) < 2 {
		return nil, fmt.Errorf("ann: state has %d layer sizes, need at least 2", len(st.Sizes))
	}
	if len(st.Acts) != len(st.Sizes)-1 || len(st.Weights) != len(st.Sizes)-1 {
		return nil, fmt.Errorf("ann: state shape mismatch: %d sizes, %d activations, %d weight layers",
			len(st.Sizes), len(st.Acts), len(st.Weights))
	}
	n := &Network{
		sizes:   append([]int(nil), st.Sizes...),
		acts:    make([]Activation, len(st.Acts)),
		weights: make([][]float64, len(st.Weights)),
	}
	for i, name := range st.Acts {
		a, err := activationByName(name)
		if err != nil {
			return nil, err
		}
		n.acts[i] = a
	}
	for l, w := range st.Weights {
		if n.sizes[l] < 1 || n.sizes[l+1] < 1 {
			return nil, fmt.Errorf("ann: state has non-positive layer size in %v", n.sizes)
		}
		want := (n.sizes[l] + 1) * n.sizes[l+1]
		if len(w) != want {
			return nil, fmt.Errorf("ann: state weight layer %d has %d weights, topology needs %d", l, len(w), want)
		}
		n.weights[l] = w
	}
	return n, nil
}

// EnsembleState is the serialisable form of an Ensemble.
type EnsembleState struct {
	Nets []NetworkState
}

// State exports the ensemble's full state (deep copy).
func (e *Ensemble) State() EnsembleState {
	st := EnsembleState{Nets: make([]NetworkState, len(e.nets))}
	for i, n := range e.nets {
		st.Nets[i] = n.State()
	}
	return st
}

// EnsembleFromState reconstructs an ensemble from exported state. The
// ensemble takes ownership of st's weight slices instead of copying
// them: the caller must not modify them afterwards. State returns deep
// copies, so a State → EnsembleFromState round trip shares nothing, and
// the model loaders pass weights they have just decoded.
func EnsembleFromState(st EnsembleState) (*Ensemble, error) {
	if len(st.Nets) == 0 {
		return nil, fmt.Errorf("ann: ensemble state has no member networks")
	}
	e := &Ensemble{nets: make([]*Network, len(st.Nets))}
	for i, ns := range st.Nets {
		n, err := networkFromState(ns)
		if err != nil {
			return nil, fmt.Errorf("ann: member %d: %w", i, err)
		}
		e.nets[i] = n
	}
	return e, nil
}

// activationByName inverts Activation.String.
func activationByName(name string) (Activation, error) {
	switch name {
	case "sigmoid":
		return Sigmoid, nil
	case "tanh":
		return Tanh, nil
	case "relu":
		return ReLU, nil
	case "linear":
		return Linear, nil
	}
	return 0, fmt.Errorf("ann: unknown activation %q", name)
}
