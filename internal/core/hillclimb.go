package core

import (
	"context"
	"fmt"

	"repro/internal/devsim"
	"repro/internal/tuning"
)

// hillClimbStrategy is a classical local-search baseline: from random
// valid starting points, repeatedly move to the best neighbouring
// configuration (one parameter changed by one step) until no neighbour
// improves, within a total measurement budget. It is the kind of
// empirical search the paper's model-based approach competes with: cheap
// per step, but easily trapped by the non-convex, invalid-riddled
// landscapes of §6. Each restart draws from its own seed-derived RNG
// (see Session.rngFor), so results are stable for a fixed seed.
type hillClimbStrategy struct{}

func (hillClimbStrategy) Name() string { return "hillclimb" }

func (hillClimbStrategy) Description() string {
	return "steepest-descent local search with random restarts within a measurement budget"
}

func (hillClimbStrategy) Run(ctx context.Context, s *Session) (*Result, error) {
	opts := s.Options()
	budget := opts.budget()
	if budget <= 0 {
		return nil, fmt.Errorf("core: hill climbing needs a positive budget, got %d", budget)
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	space := s.Space()
	res := &Result{}
	s.emit(Event{Kind: EventStageStarted, Stage: "hillclimb"})
	defer s.emit(Event{Kind: EventStageFinished, Stage: "hillclimb"})

	// Every evaluation spends budget — including revisits served from
	// the session memo cache — keeping the classic "budget =
	// configuration evaluations" comparison with the other strategies.
	// Result.Measured/Invalid count only distinct configurations, so
	// MeasuredFraction stays a true share of the space.
	evals := 0
	spent := func() int { return evals }

	// measure spends budget on one configuration, folding it into the
	// result. ok reports a valid measurement; a false ok with nil error
	// means invalid config or exhausted budget.
	measure := func(cfg tuning.Config) (float64, bool, error) {
		if spent() >= budget {
			return 0, false, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, false, &PartialError{Stage: "hillclimb", Measured: res.Measured, Err: err}
		}
		mt, cached := s.measureOne(ctx, cfg.Index())
		if mt.err != nil && !devsim.IsInvalid(mt.err) {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return 0, false, &PartialError{Stage: "hillclimb", Measured: res.Measured, Err: ctxErr}
			}
			return 0, false, mt.err
		}
		evals++
		s.emit(Event{Kind: EventSampleMeasured, Stage: "hillclimb", Config: cfg,
			Seconds: mt.secs, Err: mt.err, Cached: cached})
		if mt.err != nil {
			if !cached {
				res.Invalid++
			}
			return 0, false, nil
		}
		if !cached {
			res.Measured++
		}
		if res.accept(cfg, mt.secs) {
			s.emit(Event{Kind: EventCandidateAccepted, Stage: "hillclimb", Config: cfg, Seconds: mt.secs})
		}
		return mt.secs, true, nil
	}

	for r := 0; r < restarts && spent() < budget; r++ {
		rng := s.rngFor("hillclimb-restart", int64(r))

		// Find a valid random starting point.
		var cur tuning.Config
		var curTime float64
		started := false
		for spent() < budget {
			cand := space.At(rng.Int63n(space.Size()))
			secs, ok, err := measure(cand)
			if err != nil {
				return nil, err
			}
			if ok {
				cur, curTime = cand, secs
				started = true
				break
			}
		}
		if !started {
			break
		}

		// Steepest-descent over single-parameter neighbours.
		for spent() < budget {
			improved := false
			bestN, bestNTime := cur, curTime
			for _, n := range neighbours(cur) {
				secs, ok, err := measure(n)
				if err != nil {
					return nil, err
				}
				if ok && secs < bestNTime {
					bestN, bestNTime = n, secs
					improved = true
				}
			}
			if !improved {
				break
			}
			cur, curTime = bestN, bestNTime
		}
	}
	res.MeasuredFraction = float64(res.Measured+res.Invalid) / float64(space.Size())
	return res, nil
}

// neighbours returns the configurations reachable by moving one parameter
// one position up or down its value list.
func neighbours(cfg tuning.Config) []tuning.Config {
	space := cfg.Space()
	params := space.Params()
	var out []tuning.Config
	for i, p := range params {
		pos := p.IndexOf(cfg.Values()[i])
		for _, next := range []int{pos - 1, pos + 1} {
			if next < 0 || next >= p.Arity() {
				continue
			}
			vals := append([]int(nil), cfg.Values()...)
			vals[i] = p.Values[next]
			n, err := space.Make(vals...)
			if err != nil {
				continue // cannot happen: values come from the parameter
			}
			out = append(out, n)
		}
	}
	return out
}
