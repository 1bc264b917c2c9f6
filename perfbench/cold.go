package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/service"
)

// coldM is the top-M size of the cold phase: the mltune -m default
// scale of the paper's second stage.
const coldM = 200

// coldWindow is how many iterations each p90 window holds.
const coldWindow = 10

// The cold phase's artifacts: two models of the workload's benchmark
// with different weights, which take turns under one key and in the
// cold sweeps.
var coldFixtures = [2]struct {
	seed int64
	file string
}{{201, "a.mlt"}, {202, "b.mlt"}}

// coldSetup is the state the cold set-up builds.
type coldSetup struct {
	d     *daemon
	fx    [2]fixture
	paths [2]string
}

func buildCold(benchmark, dir string) (*coldSetup, error) {
	st := &coldSetup{}
	for i, f := range coldFixtures {
		fx, err := trainFixture(benchmark, devsim.IntelI7, f.seed)
		if err != nil {
			return nil, err
		}
		st.fx[i] = fx
		st.paths[i] = filepath.Join(dir, f.file)
		if err := os.WriteFile(st.paths[i], fx.artifact, 0o644); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon([]fixture{st.fx[0]})
	if err != nil {
		return nil, err
	}
	st.d = d
	return st, nil
}

// coldRefs holds the in-process reference answers of each artifact.
type coldRefs struct {
	top   [2]*core.TopMResult // cold sweep of the int16 twin
	pool  []int64
	preds [2]map[int64]float64 // served-engine predictions
	twins [2]*core.Model       // int16 twins
}

func prepareCold(st *coldSetup, seed int64) (*coldRefs, error) {
	r := &coldRefs{}
	for i := range st.fx {
		v, err := loadView(st.fx[i].artifact, servedEngine)
		if err != nil {
			return nil, err
		}
		r.twins[i] = v
		r.top[i] = v.TopMIncremental(coldM, nil)
	}
	space := r.twins[0].Space()
	r.pool = space.SampleIndices(rand.New(rand.NewSource(deriveSeed(seed, 'P', 0))), servePool)
	for i := range r.twins {
		vals := r.twins[i].PredictIndices(r.pool, r.twins[i].NewBatchScratch(), nil)
		r.preds[i] = make(map[int64]float64, len(vals))
		for k, idx := range r.pool {
			r.preds[i][idx] = vals[k]
		}
	}
	return r, nil
}

// sameTop reports whether two top-M answers are identical.
func sameTop(a, b []core.Predicted) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coldIter is one iteration's timings (and, traced, its replays).
type coldIter struct {
	put, reload, firstPredict, seededRPC time.Duration
	load, sweep                          time.Duration
	scored                               int64
	spaceSize                            int64

	seeded          time.Duration
	seededScored    int64
	screen, rescore time.Duration
}

func (c coldIter) swap() time.Duration  { return c.reload + c.firstPredict + c.seededRPC }
func (c coldIter) total() time.Duration { return c.put + c.swap() + c.load + c.sweep }

// coldState is what the cold iterations carry from one to the next.
type coldState struct {
	st   *coldSetup
	refs *coldRefs
	// installed is the artifact the key serves; iter counts iterations.
	installed, iter int
	// base holds the daemon's counters after the previous iteration.
	base counters
}

// newColdState computes the reference answers and warms the key up:
// its first query loads artifact a and sweeps it cold, and that result
// is what the first swap's sweep is seeded from.
func newColdState(st *coldSetup, seed int64) (*coldState, error) {
	refs, err := prepareCold(st, seed)
	if err != nil {
		return nil, err
	}
	key := st.fx[0].key
	if r, err := st.d.rpc.TopM(&service.TopMRequest{Benchmark: key.Benchmark, Device: key.Device, M: coldM}); err != nil {
		return nil, fmt.Errorf("warm-up top-M: %w", err)
	} else if !sameTop(predicted(r.Top), refs.top[0].Top) {
		return nil, fmt.Errorf("warm-up top-M of %s differs from the in-process sweep", coldFixtures[0].file)
	}
	base, err := st.d.stats()
	if err != nil {
		return nil, err
	}
	return &coldState{st: st, refs: refs, base: base}, nil
}

// coldPhase measures the cold phase one iteration at a time.
type coldPhase struct {
	s     *coldState
	out   *outcome
	tr    *tracer
	iters []coldIter
}

func (p *coldPhase) step() {
	p.out.attempted++
	it, err := coldIteration(p.s, p.tr)
	if err != nil {
		p.out.failed++
		p.out.failf("cold iteration %d: %v", p.s.iter-1, err)
		return
	}
	p.iters = append(p.iters, it)
}

// reportCold adds the cold phase's end-to-end metrics.
func reportCold(rep *report, iters []coldIter) {
	var sweeps, swaps []float64
	for _, it := range iters {
		sweeps = append(sweeps, float64(it.sweep)/1e6)
		swaps = append(swaps, float64(it.swap())/1e6)
	}
	rep.addQuantile("topm_cold_p50_ms", sweeps, 0.5, "ms")
	rep.addWindowedQuantile("topm_cold_p90_ms", sweeps, coldWindow, 0.9, "ms")
	rep.addQuantile("swap_p50_ms", swaps, 0.5, "ms")
	rep.addWindowedQuantile("swap_p90_ms", swaps, coldWindow, 0.9, "ms")
}

func predicted(ps []service.Prediction) []core.Predicted {
	out := make([]core.Predicted, len(ps))
	for i, p := range ps {
		out[i] = core.Predicted{Index: p.Index, Seconds: p.Seconds}
	}
	return out
}

// coldIteration swaps the key to the other artifact, times the first
// predict and first top-M after the swap, then times one cold sweep.
func coldIteration(s *coldState, tr *tracer) (coldIter, error) {
	var it coldIter
	st, refs, i := s.st, s.refs, s.iter
	s.iter++
	d := st.d
	key := st.fx[0].key
	target := 1 - s.installed
	req := tr.id()
	iterStart := time.Now()

	t0 := time.Now()
	if _, err := d.be.Put(d.files[key], st.fx[target].artifact); err != nil {
		return it, fmt.Errorf("backend put: %w", err)
	}
	t1 := time.Now()
	if _, err := d.srv.ReloadModels(); err != nil {
		return it, fmt.Errorf("reload: %w", err)
	}
	s.installed = target
	t2 := time.Now()
	idx := refs.pool[i%len(refs.pool)]
	p, err := d.rpc.Predict(&service.PredictRequest{Benchmark: key.Benchmark, Device: key.Device, HasIndex: true, Index: idx})
	if err != nil {
		return it, fmt.Errorf("first predict: %w", err)
	}
	t3 := time.Now()
	top, err := d.rpc.TopM(&service.TopMRequest{Benchmark: key.Benchmark, Device: key.Device, M: coldM})
	if err != nil {
		return it, fmt.Errorf("first top-M: %w", err)
	}
	t4 := time.Now()
	it.put, it.reload, it.firstPredict, it.seededRPC = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	tr.record("storage.put", req, req, t0, t1)
	tr.record("service.reload", req, req, t1, t2)
	tr.record("service.first_predict", req, req, t2, t3)
	tr.record("service.topm_seeded", req, req, t3, t4)
	if p.Index != idx || p.Seconds != refs.preds[target][idx] {
		return it, fmt.Errorf("%w: first predict of index %d = %g, want %g", errMismatch, idx, p.Seconds, refs.preds[target][idx])
	}
	if !sameTop(predicted(top.Top), refs.top[target].Top) {
		return it, fmt.Errorf("%w: seeded top-%d after the swap differs from the cold sweep of the same artifact", errMismatch, coldM)
	}
	now, err := d.stats()
	if err != nil {
		return it, err
	}
	loads := now.diff(s.base, "mltuned_model_loads_total")
	seeded := now.diff(s.base, "mltuned_topm_seeded_total")
	s.base = now
	if loads != 1 || seeded != 1 {
		return it, fmt.Errorf("swap added %v model loads and %v seeded sweeps, want 1 and 1", loads, seeded)
	}

	art := i % len(st.paths)
	t5 := time.Now()
	m, err := core.LoadModelFile(st.paths[art])
	if err != nil {
		return it, fmt.Errorf("load: %w", err)
	}
	view, err := m.WithEngine(servedEngine)
	if err != nil {
		return it, err
	}
	t6 := time.Now()
	res := view.TopMIncremental(coldM, nil)
	t7 := time.Now()
	it.load, it.sweep, it.scored, it.spaceSize = t6.Sub(t5), t7.Sub(t6), res.Scored, view.Space().Size()
	tr.record("core.load", req, req, t5, t6)
	tr.record("core.topm_cold", req, req, t6, t7)
	if res.Scored <= 0 {
		return it, fmt.Errorf("cold sweep of %s scored %d configurations", coldFixtures[art].file, res.Scored)
	}
	if !sameTop(res.Top, refs.top[art].Top) {
		return it, fmt.Errorf("%w: cold top-%d of %s differs from its reference sweep", errMismatch, coldM, coldFixtures[art].file)
	}
	if tr != nil {
		if err := replayCold(&it, refs, target, m, res, tr, req); err != nil {
			return it, err
		}
		tr.add("cold.iteration", req, 0, req, iterStart, time.Now())
	}
	return it, nil
}

// replayCold re-runs the iteration's sweeps layer by layer in-process:
// the seeded sweep of the swapped-in artifact, and the cold sweep split
// into its full-space screen at the final ceiling and the exact
// re-score of the survivors.
func replayCold(it *coldIter, refs *coldRefs, target int, m *core.Model, res *core.TopMResult, tr *tracer, req int64) error {
	t0 := time.Now()
	seeded := refs.twins[target].TopMIncremental(coldM, refs.top[1-target])
	t1 := time.Now()
	it.seeded, it.seededScored = t1.Sub(t0), seeded.Scored
	tr.record("core.topm_seeded", req, req, t0, t1)
	if !sameTop(seeded.Top, refs.top[target].Top) {
		return fmt.Errorf("%w: in-process seeded sweep differs from the cold sweep", errMismatch)
	}

	// The final ceiling, in raw output space, from the reference score
	// of the M-th best configuration — with the sweep's own margins.
	const margin = 1e-9
	schema := m.Schema()
	worst := res.Top[len(res.Top)-1].Index
	raw := m.Ensemble().Predict(schema.EncodeIndex(worst, nil, nil), m.Ensemble().NewScratch())
	ceil := raw + margin*(1+math.Abs(raw))

	// Screen and re-score over the same static partition as the sweep,
	// one worker per partition, so their wall times compare with it.
	q, err := ann.QuantizeEnsemble(m.Ensemble())
	if err != nil {
		return err
	}
	ref, err := m.WithEngine(ann.EngineFloat64)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	size := m.Space().Size()
	chunk := (size + int64(workers) - 1) / int64(workers)
	parts := make([][]int64, workers)
	errs := make([]error, workers)
	parallel := func(fn func(w int, lo, hi int64)) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo := int64(w) * chunk
				fn(w, lo, min(lo+chunk, size))
			}(w)
		}
		wg.Wait()
		return time.Since(start)
	}
	t0 = time.Now()
	it.screen = parallel(func(w int, lo, hi int64) {
		sw, err := q.NewIndexSweeper(schema.Q14Levels(), nil)
		if err != nil {
			errs[w] = err
			return
		}
		const block = 256
		lb, ub := make([]float64, block), make([]float64, block)
		for b := lo; b < hi; b += block {
			n := int(min(block, hi-b))
			sw.BoundsCeil(b, n, lb, ub, ceil+2*margin)
			for k := 0; k < n; k++ {
				if lb[k]-margin <= ceil {
					parts[w] = append(parts[w], b+int64(k))
				}
			}
		}
	})
	tr.record("ann.screen", req, req, t0, time.Now())
	survivors := 0
	for w := range parts {
		if errs[w] != nil {
			return errs[w]
		}
		survivors += len(parts[w])
	}
	if survivors < len(res.Top) {
		return fmt.Errorf("screen at the final ceiling kept %d configurations, fewer than the %d in the answer", survivors, len(res.Top))
	}
	t0 = time.Now()
	rescore := parallel(func(w int, _, _ int64) {
		ref.PredictIndices(parts[w], ref.NewBatchScratch(), nil)
	})
	tr.record("core.rescore", req, req, t0, time.Now())
	// The sweep's ceiling tightens as it goes, so it pays more exact
	// passes than the final-ceiling survivors; charge them at the
	// measured rate.
	it.rescore = time.Duration(float64(rescore) * float64(it.scored) / float64(survivors))

	return nil
}

// reportColdLayers derives the cold phase's per-layer metrics from
// the traced iterations.
func reportColdLayers(rep *report, untraced, traced []coldIter) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	var screen, rescore, passes, frac, seeded, seededPasses, residual []float64
	var load, put, reload, first, total, base []float64
	for _, it := range traced {
		screen = append(screen, ms(it.screen))
		rescore = append(rescore, ms(it.rescore))
		passes = append(passes, float64(it.scored))
		frac = append(frac, float64(it.scored)/float64(it.spaceSize))
		seeded = append(seeded, ms(it.seeded))
		seededPasses = append(seededPasses, float64(it.seededScored))
		residual = append(residual, ms(it.sweep-it.screen-it.rescore))
		load = append(load, us(it.load))
		put = append(put, us(it.put))
		reload = append(reload, us(it.reload))
		first = append(first, us(it.firstPredict))
		total = append(total, ms(it.total()))
	}
	for _, it := range untraced {
		base = append(base, ms(it.total()))
	}
	rep.addQuantile("ann.screen_ms", screen, 0.5, "ms")
	rep.addQuantile("core.rescore_ms", rescore, 0.5, "ms")
	rep.addQuantile("core.topm_exact_passes", passes, 0.5, "count")
	rep.addQuantile("core.topm_survivor_frac", frac, 0.5, "ratio")
	rep.addQuantile("core.topm_seeded_ms", seeded, 0.5, "ms")
	rep.addQuantile("core.topm_seeded_exact_passes", seededPasses, 0.5, "count")
	rep.addQuantile("core.topm_residual_ms", residual, 0.5, "ms")
	rep.addQuantile("core.load_us", load, 0.5, "us")
	rep.addQuantile("storage.put_us", put, 0.5, "us")
	rep.addQuantile("service.reload_us", reload, 0.5, "us")
	rep.addQuantile("service.first_predict_us", first, 0.5, "us")

	layers := median(load)/1e3 + median(reload)/1e3 + median(screen) + median(rescore)
	share := layers / median(total)
	overhead := median(total) - median(base)
	fmt.Printf("reconcile cold: load+reload+screen+rescore medians cover %.1f%% of the traced iteration median %.2fms; tracing overhead %.3fms (untraced median %.2fms)\n",
		100*share, median(total), overhead, median(base))
	rep.add("recon.cold_share", share, "ratio", len(traced))
	rep.add("trace.cold_overhead_ms", overhead, "ms", len(untraced)+len(traced))
}
