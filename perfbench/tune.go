package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/tuning"
)

// The tune phase's scaled-down pipeline: N valid training samples and
// M second-stage candidates per case, with the paper's model.
const (
	tuneN       = 200
	tuneM       = 50
	tuneWorkers = 2 // gather pool and ensemble training
)

// tuneCases is the fixed case set of one pass. The AMD HD 7970 is left
// out: on convolution its second stage is usually all invalid (the
// paper's §7 failure mode), which would turn frac_of_optimum into a coin
// flip per seed. Raycasting and stereo are left out because their
// full-space sweep on the float model, not training, dominates a pass.
var tuneCases = []struct{ bench, device string }{
	{"convolution", devsim.IntelI7},
	{"convolution", devsim.NvidiaK40},
}

// countingMeasurer wraps a measurer, counting and timing every Measure
// call. It forwards Coster and TrueTimer, so a wrapped run is the same
// run as an unwrapped one.
type countingMeasurer struct {
	inner core.Measurer
	calls atomic.Int64
	busy  atomic.Int64 // ns spent inside Measure, summed over workers

	tr     *tracer
	req    int64
	parent atomic.Int64 // span id of the current session stage
}

func (m *countingMeasurer) Space() *tuning.Space { return m.inner.Space() }

func (m *countingMeasurer) Measure(ctx context.Context, cfg tuning.Config) (float64, error) {
	start := time.Now()
	secs, err := m.inner.Measure(ctx, cfg)
	end := time.Now()
	m.calls.Add(1)
	m.busy.Add(int64(end.Sub(start)))
	m.tr.record("devsim.measure", m.parent.Load(), m.req, start, end)
	return secs, err
}

// CompileSeconds forwards to the inner measurer; 0 when it reports no
// build cost, as core does for such measurers.
func (m *countingMeasurer) CompileSeconds(cfg tuning.Config) float64 {
	if c, ok := m.inner.(core.Coster); ok {
		return c.CompileSeconds(cfg)
	}
	return 0
}

// TrueTime forwards to the inner measurer.
func (m *countingMeasurer) TrueTime(cfg tuning.Config) (float64, error) {
	if t, ok := m.inner.(core.TrueTimer); ok {
		return t.TrueTime(cfg)
	}
	return 0, fmt.Errorf("perfbench: measurer reports no true time")
}

// tuneCase is one (benchmark, device) case with its exhaustive optimum.
type tuneCase struct {
	name    string
	bench   bench.Benchmark
	device  *devsim.Device
	optimum float64
}

// measurer returns a fresh simulated measurer for the case. Every case
// run gets its own, because SimMeasurer draws its noise per attempt:
// sharing one would make a run's result depend on the runs before it.
func (c tuneCase) measurer() (*core.SimMeasurer, error) {
	return core.NewSimMeasurer(c.bench, c.device, bench.Size{}, 0)
}

// buildTuneCases builds the measurers and computes each case's true
// optimum by exhaustive search over the noise-free simulated times.
func buildTuneCases() ([]tuneCase, error) {
	cases := make([]tuneCase, 0, len(tuneCases))
	for _, c := range tuneCases {
		b, err := bench.Lookup(c.bench)
		if err != nil {
			return nil, err
		}
		d, err := devsim.Lookup(c.device)
		if err != nil {
			return nil, err
		}
		meas, err := core.NewSimMeasurer(b, d, bench.Size{}, 0)
		if err != nil {
			return nil, err
		}
		space := meas.Space()
		best := math.Inf(1)
		for i := int64(0); i < space.Size(); i++ {
			t, err := meas.TrueTime(space.At(i))
			if err != nil {
				if devsim.IsInvalid(err) {
					continue
				}
				return nil, err
			}
			best = math.Min(best, t)
		}
		if math.IsInf(best, 1) {
			return nil, fmt.Errorf("case %s@%s has no valid configuration", c.bench, c.device)
		}
		cases = append(cases, tuneCase{name: c.bench + "@" + c.device, bench: b, device: d, optimum: best})
	}
	return cases, nil
}

// tuneOptions returns the options of one case run.
func tuneOptions(seed int64) core.Options {
	opts := core.Options{TrainingSamples: tuneN, SecondStage: tuneM, Seed: seed}
	opts.Model = core.DefaultModelConfig(seed)
	opts.Model.Ensemble.Workers = tuneWorkers
	return opts
}

// caseResult is what one Session.Run contributes to the metrics.
type caseResult struct {
	frac             float64 // true optimum ÷ true time of the best found; 0 if none
	executed         int64   // distinct configurations executed
	calls            int64   // devsim Measure calls
	busy             time.Duration
	samples, attempt int
	memoHits         int
	gatherCalls      int64
}

// runCase runs the ML pipeline on one case and checks its path.
func runCase(ctx context.Context, c tuneCase, seed int64, tr *tracer, req int64, out *outcome) (caseResult, error) {
	meas, err := c.measurer()
	if err != nil {
		return caseResult{}, err
	}
	w := &countingMeasurer{inner: meas, tr: tr, req: req}
	var sopts []core.SessionOption
	sopts = append(sopts, core.WithWorkers(tuneWorkers))
	var gatherCalls int64
	if tr != nil {
		sopts = append(sopts, core.WithObserver(stageTracer(tr, w, req, &gatherCalls)))
	}
	s, err := core.NewSession(w, tuneOptions(seed), sopts...)
	if err != nil {
		return caseResult{}, err
	}
	res, err := s.Run(ctx, "ml")
	if err != nil {
		return caseResult{}, fmt.Errorf("%s seed %d: %w", c.name, seed, err)
	}
	space := meas.Space()
	fresh, hits := s.CacheStats()
	executed := int64(math.Round(res.MeasuredFraction * float64(space.Size())))
	calls := w.calls.Load()
	if calls != int64(fresh) || calls != executed {
		out.failf("%s seed %d: devsim calls %d, session fresh measurements %d, executed %d must agree",
			c.name, seed, calls, fresh, executed)
	}
	r := caseResult{executed: executed, calls: calls, busy: time.Duration(w.busy.Load()),
		samples: len(res.Samples), attempt: res.Attempts, memoHits: hits, gatherCalls: gatherCalls}
	if res.Found {
		t, err := meas.TrueTime(res.Best)
		if err != nil {
			out.failf("%s seed %d: best config %v has no true time: %v", c.name, seed, res.Best, err)
		} else {
			r.frac = c.optimum / t
			if r.frac <= 0 || r.frac > 1+1e-12 {
				out.failf("%s seed %d: best true time %g beats the exhaustive optimum %g", c.name, seed, t, c.optimum)
			}
		}
	}
	return r, nil
}

// stageTracer turns the session's stage events into spans: the gather,
// train and second-stage stages, and the top-M sweep between training
// and the second stage. Measurements record under the current stage.
func stageTracer(tr *tracer, w *countingMeasurer, req int64, gatherCalls *int64) core.Observer {
	names := map[string]string{"gather": "session.gather", "train": "ann.train", "second-stage": "session.second_stage"}
	var (
		stageID    int64
		stageStart time.Time
		callsAt    int64
		trainEnd   time.Time
	)
	return func(ev core.Event) {
		switch ev.Kind {
		case core.EventStageStarted:
			now := time.Now()
			if ev.Stage == "second-stage" && !trainEnd.IsZero() {
				tr.record("core.topm", req, req, trainEnd, now)
			}
			stageID, stageStart, callsAt = tr.id(), now, w.calls.Load()
			w.parent.Store(stageID)
		case core.EventStageFinished:
			now := time.Now()
			tr.add(names[ev.Stage], stageID, req, req, stageStart, now)
			w.parent.Store(req)
			switch ev.Stage {
			case "gather":
				*gatherCalls = w.calls.Load() - callsAt
			case "train":
				trainEnd = now
			}
		}
	}
}

// tunePass is one pass over every case.
type tunePass struct {
	wall  time.Duration
	cases []caseResult
}

// tunePhase measures the tune phase one pass at a time.
type tunePhase struct {
	cfg    runConfig
	cases  []tuneCase
	out    *outcome
	tr     *tracer
	passes []tunePass
}

// step runs the next pass over every case. Pass p always uses the same
// per-case seeds, so the untraced and traced halves of a traced run, and
// runs of two commits, tune the same problems in the same order.
func (t *tunePhase) step() {
	pass := len(t.passes)
	p := tunePass{}
	t0 := time.Now()
	for ci, c := range t.cases {
		req := t.tr.id()
		cs := time.Now()
		t.out.attempted++
		r, err := runCase(context.Background(), c, deriveSeed(t.cfg.seed, uint64(pass), uint64(ci)), t.tr, req, t.out)
		if err != nil {
			t.out.failed++
			t.out.failf("%v", err)
			continue
		}
		t.tr.add("tune.case", req, 0, req, cs, time.Now())
		p.cases = append(p.cases, r)
	}
	p.wall = time.Since(t0)
	t.passes = append(t.passes, p)
	// Training leaves more garbage than any other step; collect it here,
	// untimed, so the serve and cold steps that follow do not pay for it.
	runtime.GC()
}

// reportTune adds the tune phase's end-to-end metrics.
func reportTune(rep *report, passes []tunePass) {
	walls, fracs, executed := passStats(passes)
	rep.add("tune_wall_s", median(walls), "s", len(walls))
	rep.add("frac_of_optimum", mean(fracs), "ratio", len(fracs))
	rep.add("measured_configs", mean(executed), "count", len(executed))
}

// passStats returns per-pass wall times (s), per-case fractions of the
// optimum and per-pass executed-configuration sums.
func passStats(passes []tunePass) (walls, fracs, executed []float64) {
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		var sum int64
		for _, c := range p.cases {
			fracs = append(fracs, c.frac)
			sum += c.executed
		}
		executed = append(executed, float64(sum))
	}
	return walls, fracs, executed
}

// reportTuneLayers derives the tune phase's per-layer metrics, per
// pass, from the traced passes.
func reportTuneLayers(rep *report, untraced, traced []tunePass, spans []span) {
	n := len(traced)
	var calls, gatherCalls, samples, attempts, memo float64
	var busy time.Duration
	for _, p := range traced {
		for _, c := range p.cases {
			calls += float64(c.calls)
			busy += c.busy
			samples += float64(c.samples)
			attempts += float64(c.attempt)
			memo += float64(c.memoHits)
			gatherCalls += float64(c.gatherCalls)
		}
	}
	perPass := func(v float64) float64 { return v / float64(n) }
	// Stage metrics are whole stage spans: a stage's devsim.measure
	// children are part of the time the stage blocks the pass.
	durMs := map[string]float64{}
	for _, sp := range spans {
		durMs[sp.Name] += float64(sp.End-sp.Start) / 1e6 / float64(n)
	}
	totalMs := func(name string) float64 { return durMs[name] }
	rep.add("devsim.measure_calls", perPass(calls), "count", n)
	rep.add("devsim.measure_ms", perPass(float64(busy))/1e6, "ms", n)
	rep.add("session.gather_ms", totalMs("session.gather"), "ms", n)
	rep.add("session.second_stage_ms", totalMs("session.second_stage"), "ms", n)
	rep.add("session.valid_per_attempt", samples/attempts, "ratio", n)
	rep.add("session.discarded_measures", perPass(gatherCalls-attempts), "count", n)
	rep.add("session.memo_hits", perPass(memo), "count", n)
	rep.add("ann.train_ms", totalMs("ann.train"), "ms", n)
	rep.add("core.topm_ms", totalMs("core.topm"), "ms", n)

	uw, _, _ := passStats(untraced)
	tw, _, _ := passStats(traced)
	layers := totalMs("session.gather") + totalMs("ann.train") + totalMs("core.topm") + totalMs("session.second_stage")
	share := layers / (median(tw) * 1e3)
	// Pass p tunes the same problems in both halves, so the overhead is
	// the median of the paired differences.
	var diffs []float64
	for p := 0; p < min(len(uw), len(tw)); p++ {
		diffs = append(diffs, (tw[p]-uw[p])*1e3)
	}
	overhead := median(diffs)
	fmt.Printf("reconcile tune: gather+train+topm+second_stage spans (self time plus devsim.measure children) cover %.1f%% of the traced pass median %.1fms; tracing overhead %.2fms (untraced median %.1fms)\n",
		100*share, median(tw)*1e3, overhead, median(uw)*1e3)
	rep.add("recon.tune_share", share, "ratio", n)
	rep.add("trace.tune_overhead_ms", overhead, "ms", len(diffs))
}
