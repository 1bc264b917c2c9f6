package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/tuning"
)

// randomStrategy measures Options.Budget randomly drawn configurations
// (without replacement) and keeps the fastest — the paper's baseline for
// the large spaces (Figure 14 compares the tuner against the best of 50K
// random configurations).
type randomStrategy struct{}

func (randomStrategy) Name() string { return "random" }

func (randomStrategy) Description() string {
	return "measure Budget random configurations without replacement, keep the fastest"
}

func (randomStrategy) Run(ctx context.Context, s *Session) (*Result, error) {
	n := s.Options().budget()
	if n <= 0 {
		return nil, fmt.Errorf("core: random search needs a positive budget, got %d", n)
	}
	rng := rand.New(rand.NewSource(s.Options().Seed))
	idxs := s.Space().SampleIndices(rng, n)
	return searchIndices(ctx, s, "random-search", idxs)
}

// exhaustiveStrategy measures every configuration in the space — the
// paper's ground-truth procedure for the convolution benchmark ("it was
// therefore possible to measure the actual execution times of all
// possible configurations").
type exhaustiveStrategy struct{}

func (exhaustiveStrategy) Name() string { return "exhaustive" }

func (exhaustiveStrategy) Description() string {
	return "measure every configuration in the space (ground truth for small spaces)"
}

func (exhaustiveStrategy) Run(ctx context.Context, s *Session) (*Result, error) {
	size := s.Space().Size()
	idxs := make([]int64, size)
	for i := range idxs {
		idxs[i] = int64(i)
	}
	return searchIndices(ctx, s, "exhaustive", idxs)
}

// searchIndices measures the given configuration indices through the
// session's parallel gather pool and reduces, in deterministic index
// order, to the fastest valid one.
func searchIndices(ctx context.Context, s *Session, stage string, idxs []int64) (*Result, error) {
	res := &Result{}
	outs, _, _, err := s.gather(ctx, stage, idxs, 0, func(cfg tuning.Config, mt measurement) {
		if mt.err == nil && res.accept(cfg, mt.secs) {
			s.emit(Event{Kind: EventCandidateAccepted, Stage: stage, Config: cfg, Seconds: mt.secs})
		}
	})
	if err != nil {
		return nil, err
	}
	// Count only fresh outcomes: evaluations replayed from the session's
	// memo cache (a reused session) were neither measured again nor
	// executed, matching the Result field docs and the other strategies.
	for _, o := range outs {
		if o.cached {
			continue
		}
		if o.mt.err != nil {
			res.Invalid++
		} else {
			res.Measured++
		}
	}
	res.MeasuredFraction = float64(res.Measured+res.Invalid) / float64(s.Space().Size())
	return res, nil
}
