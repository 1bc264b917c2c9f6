package ann

import (
	"fmt"
	"math"
	"math/rand"
)

// TrainConfig controls stochastic-gradient training.
type TrainConfig struct {
	// Epochs is the maximum number of passes over the data.
	Epochs int `json:"epochs,omitempty"`
	// LearningRate is the initial step size.
	LearningRate float64 `json:"learning_rate,omitempty"`
	// LRDecay multiplies the learning rate after each epoch.
	LRDecay float64 `json:"lr_decay,omitempty"`
	// Momentum is the classical momentum coefficient.
	Momentum float64 `json:"momentum,omitempty"`
	// BatchSize is the mini-batch size (1 = pure SGD).
	BatchSize int `json:"batch_size,omitempty"`
	// Patience stops training early when the training MSE has not
	// improved by at least Tolerance for this many epochs (0 disables).
	Patience  int     `json:"patience,omitempty"`
	Tolerance float64 `json:"tolerance,omitempty"`
}

// DefaultTrainConfig returns the configuration used by the auto-tuner:
// values found, like the paper's topology, "through experimentation".
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:       600,
		LearningRate: 0.30,
		LRDecay:      0.994,
		Momentum:     0.9,
		BatchSize:    4,
		Patience:     50,
		Tolerance:    1e-5,
	}
}

// TrainResult reports the outcome of a training run.
type TrainResult struct {
	// Epochs is the number of epochs actually run.
	Epochs int
	// FinalMSE is the mean squared training error accumulated during the
	// last epoch: each sample is scored by the weights its mini-batch
	// started from, before that batch's update.
	FinalMSE float64
}

// Train fits the network to the samples (xs[i] -> ys[i]) by mini-batch
// gradient descent with momentum, shuffling each epoch with rng.
func (n *Network) Train(rng *rand.Rand, xs [][]float64, ys []float64, cfg TrainConfig) (TrainResult, error) {
	if len(xs) != len(ys) {
		return TrainResult{}, fmt.Errorf("ann: %d inputs vs %d targets", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return TrainResult{}, fmt.Errorf("ann: no training samples")
	}
	for i, x := range xs {
		if len(x) != n.sizes[0] {
			return TrainResult{}, fmt.Errorf("ann: sample %d has %d features, network expects %d", i, len(x), n.sizes[0])
		}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = DefaultTrainConfig().Epochs
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = DefaultTrainConfig().LearningRate
	}
	if cfg.LRDecay <= 0 || cfg.LRDecay > 1 {
		cfg.LRDecay = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	// A batch larger than the data is one batch of all of it. Clamping
	// sizes the block buffers by the data, not by the request.
	cfg.BatchSize = min(cfg.BatchSize, len(xs))

	blk := n.newTrainBlock(cfg.BatchSize)
	order := rng.Perm(len(xs))

	lr := cfg.LearningRate
	best := math.Inf(1)
	sinceImproved := 0
	var result TrainResult

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Fisher-Yates reshuffle of the visiting order.
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}

		var sumSE float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			sumSE = n.trainStep(blk, xs, ys, order[start:end], cfg.Momentum, lr/float64(end-start), sumSE)
		}
		lr *= cfg.LRDecay

		mse := 2 * sumSE / float64(len(xs))
		result = TrainResult{Epochs: epoch + 1, FinalMSE: mse}
		if cfg.Patience > 0 {
			if mse < best-cfg.Tolerance {
				best = mse
				sinceImproved = 0
			} else {
				sinceImproved++
				if sinceImproved >= cfg.Patience {
					break
				}
			}
		}
	}
	return result, nil
}

// MSE returns the mean squared error of the network over the samples.
func (n *Network) MSE(xs [][]float64, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := n.NewScratch()
	var sum float64
	for i, x := range xs {
		d := n.Predict(x, s) - ys[i]
		sum += d * d
	}
	return sum / float64(len(xs))
}

// trainBlock holds Train's buffers for one mini-batch of up to capacity
// samples, laid out sample-major like BatchScratch.
type trainBlock struct {
	// acts[l][b*sizes[l]+i] is layer l's output for sample b (a
	// BatchScratch's activations); acts[0] is the gathered input block.
	acts [][]float64
	// deltas[l][b*sizes[l+1]+j] is the error signal of neuron j of layer
	// l+1 for sample b.
	deltas [][]float64
	// vel is the momentum velocity, shaped like the weights.
	vel [][]float64
}

func (n *Network) newTrainBlock(capacity int) *trainBlock {
	t := &trainBlock{
		acts:   n.NewBatchScratch(capacity).activations,
		deltas: make([][]float64, len(n.weights)),
		vel:    make([][]float64, len(n.weights)),
	}
	for l, w := range n.weights {
		t.deltas[l] = make([]float64, capacity*n.sizes[l+1])
		t.vel[l] = make([]float64, len(w))
	}
	return t
}

// trainStep runs one mini-batch (the samples idx) as a block and applies
// its momentum update. sumSE is the epoch's running sum of per-sample
// squared errors; each sample's share is added in order and the new sum
// returned.
//
// Every sample of a batch reads the same pre-update weights, so the batch
// runs layer-major without changing a rounding: each dot product starts
// from the bias and adds inputs in order, and each weight's gradient
// starts at 0 and adds the samples' terms in sample order. The weights
// are bit-identical to a per-sample forward, backprop and accumulate loop
// (see train_ref_test.go).
func (n *Network) trainStep(t *trainBlock, xs [][]float64, ys []float64, idx []int, momentum, scale, sumSE float64) float64 {
	count := len(idx)
	in0 := n.sizes[0]
	for b, k := range idx {
		copy(t.acts[0][b*in0:(b+1)*in0], xs[k])
	}
	for l, w := range n.weights {
		res := t.acts[l+1][:count*n.sizes[l+1]]
		preActBlock(w, n.sizes[l], n.sizes[l+1], count, t.acts[l], res)
		applyBlock(n.acts[l], res)
	}

	last := len(n.weights) - 1
	outs := n.sizes[last+1]
	y, d := t.acts[last+1], t.deltas[last]
	for b, k := range idx {
		var se float64
		for j := b * outs; j < (b+1)*outs; j++ {
			err := y[j] - ys[k]
			se += err * err
			d[j] = err
		}
		sumSE += se / 2
	}
	derivBlock(n.acts[last], y[:count*outs], d[:count*outs])
	for l := last - 1; l >= 0; l-- {
		hid, next := n.sizes[l+1], n.sizes[l+2]
		nextW, dn, dl := n.weights[l+1], t.deltas[l+1], t.deltas[l][:count*hid]
		// dl[b*hid+j] = 0 + Σ_k w_kj·d_bk in k order, with k outside j so
		// the inner loop walks a weight row.
		clear(dl)
		for b := 0; b < count; b++ {
			row := dl[b*hid : (b+1)*hid]
			for k, dk := range dn[b*next : (b+1)*next] {
				wk := nextW[k*(hid+1) : k*(hid+1)+hid][:len(row)]
				for j, w := range wk {
					row[j] += w * dk
				}
			}
		}
		derivBlock(n.acts[l], t.acts[l+1][:count*hid], dl)
	}

	for l, w := range n.weights {
		updateLayer(w, t.vel[l], t.acts[l], t.deltas[l], n.sizes[l], n.sizes[l+1], count, momentum, scale)
	}
	return sumSE
}

// derivBlock multiplies each error signal ds[t] by the activation
// derivative at the activation value ys[t], dispatching once per layer.
func derivBlock(a Activation, ys, ds []float64) {
	switch a {
	case Sigmoid:
		for t, y := range ys {
			ds[t] *= y * (1 - y)
		}
	case Linear: // derivative 1: x*1 == x
	default:
		for t, y := range ys {
			ds[t] *= a.derivFromValue(y)
		}
	}
}

// updateLayer fuses one layer's gradient with its momentum update: for
// each weight, g = 0 + Σ_b d_bj·x_bi in sample order (bias input 1), then
// v = momentum·v − scale·g and w += v.
func updateLayer(w, v, src, d []float64, in, out, count int, momentum, scale float64) {
	cols := in + 1
	for j := 0; j < out; j++ {
		wr := w[j*cols : j*cols+cols : j*cols+cols]
		vr := v[j*cols : j*cols+cols : j*cols+cols]
		if count == 4 {
			// The default batch: four independent products per weight,
			// with the sample rows hoisted out of the weight loop.
			d0, d1, d2, d3 := d[j], d[out+j], d[2*out+j], d[3*out+j]
			vs, ws := vr[:in], wr[:in]
			x0 := src[0*in : 1*in][:len(vs)]
			x1 := src[1*in : 2*in][:len(vs)]
			x2 := src[2*in : 3*in][:len(vs)]
			x3 := src[3*in : 4*in][:len(vs)]
			for i, vi := range vs {
				g := 0.0
				g += d0 * x0[i]
				g += d1 * x1[i]
				g += d2 * x2[i]
				g += d3 * x3[i]
				vi = momentum*vi - scale*g
				vs[i] = vi
				ws[i] += vi
			}
		} else {
			for i := 0; i < in; i++ {
				g := 0.0
				for b := 0; b < count; b++ {
					g += d[b*out+j] * src[b*in+i]
				}
				vr[i] = momentum*vr[i] - scale*g
				wr[i] += vr[i]
			}
		}
		g := 0.0
		for b := 0; b < count; b++ {
			g += d[b*out+j]
		}
		vr[in] = momentum*vr[in] - scale*g
		wr[in] += vr[in]
	}
}
