package ann

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
)

// Ensemble is the paper's bagging model (§5.2): the training data is
// split into k parts and k networks are trained, each on all data except
// one part; the prediction is the mean of the member outputs. The paper
// uses k = 11.
type Ensemble struct {
	nets []*Network
}

// EnsembleConfig controls ensemble construction.
type EnsembleConfig struct {
	// K is the number of folds/member networks (paper: 11).
	K int `json:"k,omitempty"`
	// Hidden is the hidden layer width (paper: 30).
	Hidden int `json:"hidden,omitempty"`
	// HiddenLayers is the number of hidden layers (paper: 1).
	HiddenLayers int `json:"hidden_layers,omitempty"`
	// Train configures each member's gradient descent.
	Train TrainConfig `json:"train,omitempty"`
	// Seed drives all stochastic choices (fold assignment, weight
	// initialization, shuffling).
	Seed int64 `json:"seed,omitempty"`
	// Parallel trains members on all available cores when true. It is
	// the legacy on/off knob: Workers, when positive, takes precedence.
	Parallel bool `json:"parallel,omitempty"`
	// Workers bounds the number of member networks trained concurrently
	// (0 = GOMAXPROCS when Parallel, else 1). Because every stochastic
	// choice is pre-drawn per member, the trained ensemble is
	// bit-identical for every worker count — workers only change
	// wall-clock time.
	Workers int `json:"workers,omitempty"`
}

// workerCount resolves the effective training parallelism for k members.
func (cfg EnsembleConfig) workerCount(k int) int {
	w := cfg.Workers
	if w <= 0 {
		if cfg.Parallel {
			w = runtime.GOMAXPROCS(0)
		} else {
			w = 1
		}
	}
	if w > k {
		w = k
	}
	if w < 1 {
		w = 1
	}
	return w
}

// DefaultEnsembleConfig returns the paper's model: 11 bagged networks,
// one hidden layer of 30 sigmoid neurons.
func DefaultEnsembleConfig(seed int64) EnsembleConfig {
	return EnsembleConfig{
		K:            11,
		Hidden:       30,
		HiddenLayers: 1,
		Train:        DefaultTrainConfig(),
		Seed:         seed,
		Parallel:     true,
	}
}

// TrainEnsemble fits a bagging ensemble to the samples.
func TrainEnsemble(xs [][]float64, ys []float64, cfg EnsembleConfig) (*Ensemble, error) {
	return TrainEnsembleProgress(context.Background(), xs, ys, cfg, nil)
}

// TrainEnsembleProgress is TrainEnsemble with cancellation and a
// completion callback. Member networks train on a bounded worker pool of
// cfg.workerCount goroutines; per-member seeds are pre-drawn from one
// rng before any worker starts, so the trained ensemble is bit-identical
// to the sequential path for every worker count. progress, when non-nil,
// is called serially after each member finishes, with the number of
// members done so far and the total. Cancelling ctx stops the pool at
// the next member boundary (a member already training runs to
// completion) and returns ctx.Err().
func TrainEnsembleProgress(ctx context.Context, xs [][]float64, ys []float64, cfg EnsembleConfig, progress func(done, total int)) (*Ensemble, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("ann: %d inputs vs %d targets", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("ann: no training samples")
	}
	if cfg.K <= 0 {
		cfg.K = 1
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 30
	}
	if cfg.HiddenLayers <= 0 {
		cfg.HiddenLayers = 1
	}
	if cfg.K > len(xs) {
		cfg.K = len(xs)
	}

	dim := len(xs[0])
	sizes := make([]int, 0, cfg.HiddenLayers+2)
	acts := make([]Activation, 0, cfg.HiddenLayers+1)
	sizes = append(sizes, dim)
	for h := 0; h < cfg.HiddenLayers; h++ {
		sizes = append(sizes, cfg.Hidden)
		acts = append(acts, Sigmoid)
	}
	sizes = append(sizes, 1)
	acts = append(acts, Linear)

	// Assign samples to folds with a seeded shuffle.
	rng := rand.New(rand.NewSource(cfg.Seed))
	fold := make([]int, len(xs))
	for i := range fold {
		fold[i] = i % cfg.K
	}
	rng.Shuffle(len(fold), func(i, j int) { fold[i], fold[j] = fold[j], fold[i] })

	nets := make([]*Network, cfg.K)
	errs := make([]error, cfg.K)
	seeds := make([]int64, cfg.K)
	for k := range seeds {
		seeds[k] = rng.Int63()
	}

	trainMember := func(k int) {
		memberRng := rand.New(rand.NewSource(seeds[k]))
		net, err := New(memberRng, sizes, acts...)
		if err != nil {
			errs[k] = err
			return
		}
		// All samples except fold k. With K == 1 there is nothing to
		// hold out: train on everything (plain single network).
		var tx [][]float64
		var ty []float64
		for i := range xs {
			if cfg.K > 1 && fold[i] == k {
				continue
			}
			tx = append(tx, xs[i])
			ty = append(ty, ys[i])
		}
		if _, err := net.Train(memberRng, tx, ty, cfg.Train); err != nil {
			errs[k] = err
			return
		}
		nets[k] = net
	}

	// Bounded worker pool: workers pull member indices from a channel, so
	// at most workerCount members train concurrently no matter how large
	// K is. All stochastic state (folds, per-member seeds) is fixed above,
	// so scheduling cannot affect the result — only progress-call order.
	var (
		progMu sync.Mutex
		done   int
	)
	memberDone := func() {
		if progress == nil {
			return
		}
		progMu.Lock()
		done++
		progress(done, cfg.K)
		progMu.Unlock()
	}
	if workers := cfg.workerCount(cfg.K); workers > 1 {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range work {
					if ctx.Err() != nil {
						errs[k] = ctx.Err()
						continue // drain the channel without training
					}
					trainMember(k)
					memberDone()
				}
			}()
		}
		for k := 0; k < cfg.K; k++ {
			work <- k
		}
		close(work)
		wg.Wait()
	} else {
		for k := 0; k < cfg.K; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			trainMember(k)
			memberDone()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Ensemble{nets: nets}, nil
}

// Size returns the number of member networks.
func (e *Ensemble) Size() int { return len(e.nets) }

// Members returns the member networks (shared, do not mutate).
func (e *Ensemble) Members() []*Network { return e.nets }

// PredictScratch holds per-goroutine buffers for ensemble prediction.
type PredictScratch struct {
	scratches []*Scratch
}

// NewScratch allocates prediction buffers for the ensemble.
func (e *Ensemble) NewScratch() *PredictScratch {
	ps := &PredictScratch{scratches: make([]*Scratch, len(e.nets))}
	for i, n := range e.nets {
		ps.scratches[i] = n.NewScratch()
	}
	return ps
}

// Predict returns the mean of the member networks' outputs for x.
// Safe for concurrent use with distinct scratches.
func (e *Ensemble) Predict(x []float64, ps *PredictScratch) float64 {
	var sum float64
	for i, n := range e.nets {
		sum += n.Predict(x, ps.scratches[i])
	}
	return sum / float64(len(e.nets))
}
