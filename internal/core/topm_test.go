package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/devsim"
	"repro/internal/tuning"
)

// engineView returns the model re-engined under name, failing the test if
// the selection is refused.
func engineView(t testing.TB, m *Model, name string) *Model {
	t.Helper()
	v, err := m.WithEngine(name)
	if err != nil {
		t.Fatalf("WithEngine(%q): %v", name, err)
	}
	return v
}

// TestTopMEngineSetIdentity pins the engine contract on the fast test
// model: every screening engine's sweep returns exactly the
// float-reference set, same indices, same order, same bits, for every
// worker count.
func TestTopMEngineSetIdentity(t *testing.T) {
	m := trainedTestModel(t)
	const M = 50
	want := bruteTopM(m, M)
	for _, name := range ann.EngineNames() {
		t.Run(name, func(t *testing.T) {
			q := engineView(t, m, name)
			for workers := 1; workers <= 8; workers++ {
				got := q.topM(M, workers)
				if len(got) != M {
					t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), M)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: result %d = %+v, want %+v (engine changed the ranking)",
							workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// paperConvModel trains the paper-default convolution model (k=11,
// hidden=30) on simulated K40 measurements, shared across the heavy
// top-M tests.
var (
	paperConvOnce  sync.Once
	paperConvModel *Model
	paperConvErr   error
)

func paperConvolutionModel(t *testing.T) *Model {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-scale convolution model: skipped in -short")
	}
	paperConvOnce.Do(func() {
		bm := bench.MustLookup("convolution")
		meas, err := NewSimMeasurer(bm, devsim.MustLookup(devsim.NvidiaK40), bench.Size{}, 3)
		if err != nil {
			paperConvErr = err
			return
		}
		rng := rand.New(rand.NewSource(8))
		var samples []Sample
		for _, cfg := range bm.Space().Sample(rng, 400) {
			secs, err := meas.Measure(context.Background(), cfg)
			if err != nil {
				continue
			}
			samples = append(samples, Sample{Config: cfg, Seconds: secs})
		}
		mc := DefaultModelConfig(8) // paper defaults: k=11, hidden=30
		mc.Ensemble.Train.Epochs = 30
		paperConvModel, paperConvErr = TrainModel(bm.Space(), samples, nil, mc)
	})
	if paperConvErr != nil {
		t.Fatal(paperConvErr)
	}
	return paperConvModel
}

// TestConvolutionTopMEngineSetIdentity is the acceptance pin: over the
// full 131K convolution space, every engine's TopM — the quantised ones
// screening through the cache-blocked int16 sweeper — returns the
// identical set, indices AND order after tie-break, as the float
// engine's.
func TestConvolutionTopMEngineSetIdentity(t *testing.T) {
	m := paperConvolutionModel(t)
	const M = 200
	want := m.TopM(M)
	if len(want) != M {
		t.Fatalf("reference length %d, want %d", len(want), M)
	}
	for _, name := range ann.EngineNames() {
		t.Run(name, func(t *testing.T) {
			got := engineView(t, m, name).TopM(M)
			if len(got) != M {
				t.Fatalf("length %d, want %d", len(got), M)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("result %d: %s engine %+v, float reference %+v", i, name, got[i], want[i])
				}
			}
		})
	}
}

// TestConvolutionTopMMatchesExactSweep pins the sweep-bound screen on a
// trained paper-topology model over the full 131K convolution space:
// TopM(200) at several worker counts, and on the model's v4 round trip
// (which screens through the loaded int16 tables), equals the top 200
// of a full exact sweep.
func TestConvolutionTopMMatchesExactSweep(t *testing.T) {
	m := paperConvolutionModel(t)
	const M = 200
	want := bruteTopM(m, M)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		for name, view := range map[string]*Model{"trained": m, "loaded": loaded} {
			got := view.topMIncremental(M, workers, nil)
			if !samePredicted(got.Top, want) {
				t.Fatalf("%s workers=%d: TopM(%d) differs from the full exact sweep", name, workers, M)
			}
			if got.Scored*10 >= m.Space().Size() {
				t.Errorf("%s workers=%d: scored %d of %d configurations exactly", name, workers, got.Scored, m.Space().Size())
			}
		}
	}
}

// retrainedTestModel retrains trainedTestModel's problem with one more
// epoch: a registry-swap stand-in whose weights differ slightly
// everywhere, the incremental path's motivating case.
func retrainedTestModel(t testing.TB) *Model {
	t.Helper()
	m := trainedTestModel(t)
	space := m.Space()
	rng := rand.New(rand.NewSource(77))
	samples := make([]Sample, 0, 300)
	for _, cfg := range space.Sample(rng, 300) {
		lx := math.Log2(float64(cfg.Value("x")))
		ly := math.Log2(float64(cfg.Value("y")))
		secs := 0.5 + (lx-3)*(lx-3) + 0.3*(ly-2)*(ly-2) + 0.1*float64(cfg.Value("a"))
		if cfg.Bool("z") {
			secs *= 1.2
		}
		samples = append(samples, Sample{Config: cfg, Seconds: secs})
	}
	mc := DefaultModelConfig(77)
	mc.Ensemble.K = 5
	mc.Ensemble.Hidden = 12
	mc.Ensemble.Train = ann.TrainConfig{Epochs: 61, LearningRate: 0.3, Momentum: 0.9, BatchSize: 8}
	model, err := TrainModel(space, samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func samePredicted(a, b []Predicted) bool {
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

// TestTopMIncrementalExactReuse: when nothing a prediction depends on
// changed, the previous result is returned with zero forward passes.
func TestTopMIncrementalExactReuse(t *testing.T) {
	m := trainedTestModel(t)
	const M = 50
	cold := m.TopMIncremental(M, nil)
	if cold.Scored <= 0 {
		t.Fatalf("cold sweep reports %d exact scores", cold.Scored)
	}
	if !samePredicted(cold.Top, m.TopM(M)) {
		t.Fatal("cold incremental result differs from TopM")
	}
	warm := m.TopMIncremental(M, cold)
	if warm.Scored != 0 {
		t.Fatalf("unchanged model re-scored %d configs, want 0", warm.Scored)
	}
	if !samePredicted(warm.Top, cold.Top) {
		t.Fatal("reused result differs from the previous one")
	}
}

// TestTopMIncrementalAfterRetrain is the acceptance pin: after a
// simulated registry swap (same space, new weights), the seeded sweep
// returns the identical set to a cold sweep of the new model while
// paying strictly fewer exact forward passes.
func TestTopMIncrementalAfterRetrain(t *testing.T) {
	const M = 50
	prev := trainedTestModel(t).TopMIncremental(M, nil)
	m2 := retrainedTestModel(t)

	cold := m2.TopMIncremental(M, nil)
	warm := m2.TopMIncremental(M, prev)
	if !samePredicted(cold.Top, m2.TopM(M)) {
		t.Fatal("cold incremental result differs from TopM")
	}
	if !samePredicted(warm.Top, cold.Top) {
		t.Fatal("seeded sweep returned a different set than the cold sweep")
	}
	if warm.Scored == 0 {
		t.Fatal("retrained model claims pure reuse (fingerprint failed to change)")
	}
	if warm.Scored >= cold.Scored {
		t.Fatalf("seeded sweep scored %d configs, cold scored %d — warm start saved nothing",
			warm.Scored, cold.Scored)
	}
	t.Logf("cold scored %d, seeded scored %d (%.1f%%)",
		cold.Scored, warm.Scored, 100*float64(warm.Scored)/float64(cold.Scored))
}

// TestTopMIncrementalWorkerInvariant: the seeded sweep's result must not
// depend on the partition count.
func TestTopMIncrementalWorkerInvariant(t *testing.T) {
	const M = 30
	prev := trainedTestModel(t).TopMIncremental(M, nil)
	m2 := retrainedTestModel(t)
	want := bruteTopM(m2, M)
	for _, workers := range []int{1, 2, 3, 5, 8} {
		got := m2.topMIncremental(M, workers, prev)
		if !samePredicted(got.Top, want) {
			t.Fatalf("workers=%d: seeded result differs from specification", workers)
		}
	}
}

// TestTopMIncrementalRejectsForeignPrev: a previous result for another M
// or another space must be ignored, not misused.
func TestTopMIncrementalRejectsForeignPrev(t *testing.T) {
	m := trainedTestModel(t)
	const M = 40
	want := m.TopM(M)

	otherM := m.TopMIncremental(M+10, nil)
	got := m.TopMIncremental(M, otherM)
	if !samePredicted(got.Top, want) {
		t.Fatal("prev with different M corrupted the result")
	}

	foreign := &TopMResult{M: M, Top: []Predicted{{Index: m.Space().Size() + 5, Seconds: 1}}}
	got = m.TopMIncremental(M, foreign)
	if !samePredicted(got.Top, want) {
		t.Fatal("prev with out-of-range indices corrupted the result")
	}
}

// TestTopMIncrementalInt16Engine: the warm-started sweep composes with
// the quantised screening engine without changing the answer.
func TestTopMIncrementalInt16Engine(t *testing.T) {
	const M = 50
	prev := trainedTestModel(t).TopMIncremental(M, nil)
	m2 := engineView(t, retrainedTestModel(t), ann.EngineInt16)
	warm := m2.TopMIncremental(M, prev)
	if !samePredicted(warm.Top, bruteTopM(m2, M)) {
		t.Fatal("int16-screened seeded sweep differs from the scalar specification")
	}
}

// TestTopMScreenIsEngineIndependent pins the screen rule: every view
// screens through the int16 sweeper whatever its engine, so each view's
// sweep pays exactly the trained model's exact forward passes and returns
// the same answer.
func TestTopMScreenIsEngineIndependent(t *testing.T) {
	const M = 50
	m := trainedTestModel(t)
	want := m.TopMIncremental(M, nil)
	if want.Scored >= m.Space().Size() {
		t.Fatalf("trained model scored %d of %d configs: the screen pruned nothing", want.Scored, m.Space().Size())
	}
	for _, name := range ann.EngineNames() {
		got := engineView(t, m, name).TopMIncremental(M, nil)
		if got.Scored != want.Scored {
			t.Errorf("%s view scored %d configs, the trained model %d", name, got.Scored, want.Scored)
		}
		if !samePredicted(got.Top, want.Top) {
			t.Errorf("%s view returned a different top-M set", name)
		}
	}
}

// unitTestModel fits a small model (k=3, hidden 8) over a 32,768-point
// space whose trailing parameters form 256-configuration units in
// declaration order — the next parameter's 16 levels would overshoot
// sweepUnitMax — so even eight workers hold 16 units each, and the
// best-first order and the early stop really engage. In the sweep order
// the rule picks, the units hold 1,024 configurations.
// trainedTestModel's space is one unit.
func unitTestModel(t testing.TB) *Model { return unitTestModelSeed(t, 91) }

// unitTestModelSeed is unitTestModel with the training seed given: two
// seeds give two models over one space.
func unitTestModelSeed(t testing.TB, seed int64) *Model {
	t.Helper()
	space := tuning.NewSpace("units",
		tuning.Pow2Param("x", 1, 128), // 8
		tuning.NewParam("u", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16),
		tuning.Pow2Param("y", 1, 128),    // 8
		tuning.NewParam("a", 1, 2, 3, 4), // 4
		tuning.Pow2Param("w", 1, 8),      // 4
		tuning.BoolParam("z"),            // 2
	)
	rng := rand.New(rand.NewSource(seed))
	samples := make([]Sample, 0, 300)
	for _, cfg := range space.Sample(rng, 300) {
		lx := math.Log2(float64(cfg.Value("x")))
		ly := math.Log2(float64(cfg.Value("y")))
		u := float64(cfg.Value("u"))
		secs := 0.5 + (lx-4)*(lx-4) + 0.3*(ly-2)*(ly-2) + 0.05*(u-6)*(u-6) + 0.1*float64(cfg.Value("a"))
		if cfg.Bool("z") {
			secs *= 1.2
		}
		samples = append(samples, Sample{Config: cfg, Seconds: secs})
	}
	mc := DefaultModelConfig(seed)
	mc.Ensemble.K = 3
	mc.Ensemble.Hidden = 8
	mc.Ensemble.Train = ann.TrainConfig{Epochs: 60, LearningRate: 0.3, Momentum: 0.9, BatchSize: 8}
	model, err := TrainModel(space, samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestTopMBestFirstUnits pins the best-first sweep against the scalar
// specification where it has room to reorder: uneven deals (worker
// counts that do not divide the unit count), M from one to several
// units' worth, cold and seeded sweeps — the seeds include the
// worst-predicted configurations, which sit in units the early stop
// skips — and a Scored that repeats exactly and shows the screen and
// the early stop engaged. The screen walks the declaration order, whose
// units are the 256-configuration ones described at unitTestModel.
func TestTopMBestFirstUnits(t *testing.T) {
	m := inOrder(unitTestModel(t), identityPerm(6))
	size := m.Space().Size()
	if units := size / unitSize(spaceArity(m.space)); units < 16*8 {
		t.Fatalf("%d units over %d configs: eight workers would hold fewer than 16 each", units, size)
	}
	all := bruteTopM(m, int(size))
	for _, M := range []int{1, 50, 2500} {
		want := all[:M]
		// Seeds: the worst M/2+1 configurations and a stretch of the true
		// ranking that straddles rank M.
		top := append([]Predicted(nil), all[size-int64(M/2+1):]...)
		top = append(top, all[M/2:M/2+M/2+1]...)
		seeded := &TopMResult{M: M, Top: top}
		for _, workers := range []int{1, 2, 3, 5, 8} {
			cold := m.topMIncremental(M, workers, nil)
			if !samePredicted(cold.Top, want) {
				t.Fatalf("M=%d workers=%d: cold result differs from the specification", M, workers)
			}
			if M == 50 && cold.Scored*4 >= size {
				t.Errorf("M=%d workers=%d: cold sweep scored %d of %d configs, want under a quarter",
					M, workers, cold.Scored, size)
			}
			for rep := 0; rep < 2; rep++ {
				if again := m.topMIncremental(M, workers, nil); again.Scored != cold.Scored {
					t.Fatalf("M=%d workers=%d: Scored %d then %d on a repeated cold sweep",
						M, workers, cold.Scored, again.Scored)
				}
			}
			warm := m.topMIncremental(M, workers, seeded)
			if !samePredicted(warm.Top, want) {
				t.Fatalf("M=%d workers=%d: seeded result differs from the specification", M, workers)
			}
		}
	}
}

// windowTestModel fits a small model (k=3, hidden 8) over a space whose
// last parameter is last, behind two 8-level parameters and the given
// boolean parameters: a space shaped to set the screen's window.
func windowTestModel(t testing.TB, bools int, last tuning.Param) *Model {
	t.Helper()
	params := []tuning.Param{tuning.Pow2Param("x", 1, 128), tuning.Pow2Param("y", 1, 128)}
	for b := 0; b < bools; b++ {
		params = append(params, tuning.BoolParam(fmt.Sprintf("b%d", b)))
	}
	space := tuning.NewSpace("windows", append(params, last)...)
	rng := rand.New(rand.NewSource(97))
	samples := make([]Sample, 0, 300)
	for _, cfg := range space.Sample(rng, 300) {
		lx := math.Log2(float64(cfg.Value("x")))
		ly := math.Log2(float64(cfg.Value("y")))
		l := float64(last.IndexOf(cfg.Value(last.Name))) / float64(last.Arity())
		secs := 0.5 + (lx-4)*(lx-4) + 0.3*(ly-2)*(ly-2) + (l-0.4)*(l-0.4)
		for b := 0; b < bools; b++ {
			if cfg.Bool(fmt.Sprintf("b%d", b)) {
				secs *= 1 + 0.05*float64(b+1)
			}
		}
		samples = append(samples, Sample{Config: cfg, Seconds: secs})
	}
	mc := DefaultModelConfig(97)
	mc.Ensemble.K = 3
	mc.Ensemble.Hidden = 8
	mc.Ensemble.Train = ann.TrainConfig{Epochs: 60, LearningRate: 0.3, Momentum: 0.9, BatchSize: 8}
	model, err := TrainModel(space, samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestTopMScreenWindows pins the screen's window choice at its edges: a
// last parameter of 5 levels under five booleans screens, in declaration
// order, in the 160-configuration subtree (5 does not divide 256); in
// the sweep order the rule picks, the booleans and then the 5-level
// parameter vary slowest, so the window is the two 8-level parameters'
// 64 configurations. A last parameter of 300 levels, wider than a
// prediction block, varies fastest in both orders and falls back to
// predictBlock windows that cut its tiles. Every sweep returns the
// specification's answer at workers 1–3, screens, and repeats Scored
// exactly.
func TestTopMScreenWindows(t *testing.T) {
	values := make([]int, 300)
	for i := range values {
		values[i] = i + 1
	}
	for _, tc := range []struct {
		name     string
		bools    int
		last     tuning.Param
		declared bool // walk the declaration order, not the rule's
		window   int64
	}{
		{"arity5", 5, tuning.NewParam("unroll", 1, 2, 4, 8, 16), false, 64},
		{"arity5-declared", 5, tuning.NewParam("unroll", 1, 2, 4, 8, 16), true, 160},
		{"arity300", 1, tuning.NewParam("wide", values...), false, predictBlock},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := windowTestModel(t, tc.bools, tc.last)
			if tc.declared {
				m = inOrder(m, identityPerm(len(m.space.Params())))
			}
			_, order := m.screen.sweeper(m)
			if got := screenWindow(order.Arity()); got != tc.window {
				t.Fatalf("screen window %d, want %d", got, tc.window)
			}
			const M = 50
			size := m.Space().Size()
			want := bruteTopM(m, M)
			for workers := 1; workers <= 3; workers++ {
				got := m.topMIncremental(M, workers, nil)
				if !samePredicted(got.Top, want) {
					t.Fatalf("workers=%d: result differs from the specification", workers)
				}
				if got.Scored*2 >= size {
					t.Errorf("workers=%d: scored %d of %d configs: the screen barely pruned", workers, got.Scored, size)
				}
				if again := m.topMIncremental(M, workers, nil); again.Scored != got.Scored {
					t.Fatalf("workers=%d: Scored %d then %d on a repeated sweep", workers, got.Scored, again.Scored)
				}
			}
		})
	}
}

// withEnsemble returns m over a modified copy of its ensemble: edit gets
// the exported state and changes it in place.
func withEnsemble(t *testing.T, m *Model, edit func(st *ann.EnsembleState)) *Model {
	t.Helper()
	st := m.ensemble.State()
	edit(&st)
	e, err := ann.EnsembleFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	out := *m
	out.ensemble, out.screen = e, new(viewScreen)
	return &out
}

// TestTopMFallsBackWhenInt16Refuses pins the fallback: a model the int16
// quantiser refuses (here one hidden weight of 1e6) cannot be screened,
// so the sweep scores every configuration exactly and still returns the
// specification's answer.
func TestTopMFallsBackWhenInt16Refuses(t *testing.T) {
	const M = 50
	m := withEnsemble(t, trainedTestModel(t), func(st *ann.EnsembleState) {
		st.Nets[0].Weights[0][1] = 1e6
	})
	_, qerr := ann.QuantizeEnsemble(m.ensemble)
	if qerr == nil {
		t.Fatal("int16 quantiser accepted a 1e6 hidden weight")
	}
	if _, err := m.WithEngine(ann.EngineInt16); err == nil || err.Error() != qerr.Error() {
		t.Fatalf("WithEngine(int16) err %v, want the quantiser's %v", err, qerr)
	}
	got := m.TopMIncremental(M, nil)
	if !samePredicted(got.Top, bruteTopM(m, M)) {
		t.Fatal("unscreened sweep differs from the scalar specification")
	}
	if got.Scored != m.Space().Size() {
		t.Fatalf("unscreened sweep scored %d configs, want all %d", got.Scored, m.Space().Size())
	}
}

// TestTopMUnscreenedOutsideQuantDomain pins the other fallback: a bound
// device feature outside [QuantInputLo, QuantInputHi] leaves the domain
// the int16 error bound is proven on (the Q14 encoder clamps it), so the
// sweep scores every configuration exactly instead of trusting the
// screen. The hand-built model makes a trusted screen fail: its one
// sigmoid unit reads the first parameter x and device feature d,
// predicting −σ(1.5x + d − 4). Bound at d = 4, the best configurations
// (largest x) come last and predict −σ(1.5) ≈ −0.82; the screen sees
// d clamped to 2 and brackets them near −σ(−0.5) ≈ −0.38, above the
// −0.5 the first block (x = 0) already put in the heap.
func TestTopMUnscreenedOutsideQuantDomain(t *testing.T) {
	space := tuning.NewSpace("clamp",
		tuning.Pow2Param("x", 1, 128),    // 8, most significant
		tuning.Pow2Param("y", 1, 128),    // 8
		tuning.NewParam("a", 1, 2, 3, 4), // 4
		tuning.Pow2Param("w", 1, 8),      // 4
		tuning.BoolParam("z"),            // 2: 256 configs per x
	)
	schema := tuning.NewFeatureSchema(space, tuning.WithDeviceBlock())
	params := len(space.Params())
	hidden := make([]float64, schema.Dim()+1)
	hidden[0] = 1.5            // x
	hidden[params] = 1         // first device feature
	hidden[len(hidden)-1] = -4 // bias
	e, err := ann.EnsembleFromState(ann.EnsembleState{Nets: []ann.NetworkState{{
		Sizes:   []int{schema.Dim(), 1, 1},
		Acts:    []string{"sigmoid", "linear"},
		Weights: [][]float64{hidden, {-1, 0}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{space: space, schema: schema, ensemble: e, scaler: ann.TargetScaler{Mean: 0, Std: 1}}
	device := make([]float64, schema.TailDim())
	device[0] = 2 * ann.QuantInputHi
	bound, err := m.WithDevice(device)
	if err != nil {
		t.Fatal(err)
	}
	const M = 10
	got := bound.TopMIncremental(M, nil)
	if !samePredicted(got.Top, bruteTopM(bound, M)) {
		t.Fatal("out-of-domain sweep differs from the scalar specification")
	}
	if got.Scored != space.Size() {
		t.Fatalf("out-of-domain binding scored %d configs, want all %d", got.Scored, space.Size())
	}
}

// TestInt8EngineNeedsOnlyInt8Quantiser pins the decoupling of the int8
// engine from the screen: a hidden bias of 40000 is inside int8's int32
// accumulator range but outside int16's, so WithEngine(int8) succeeds and
// the sweep, unscreened, still returns the specification's answer.
func TestInt8EngineNeedsOnlyInt8Quantiser(t *testing.T) {
	space := tuning.NewSpace("bias",
		tuning.Pow2Param("x", 1, 128), // 8
		tuning.Pow2Param("y", 1, 64),  // 7
		tuning.NewParam("a", 1, 2, 3), // 3
	)
	schema := tuning.ParamSchema(space)
	if schema.Dim() != 3 {
		t.Fatalf("schema width %d, want 3", schema.Dim())
	}
	st := ann.MustNew(rand.New(rand.NewSource(5)), []int{3, 4, 1}, ann.Sigmoid, ann.Linear).State()
	st.Weights[0][3] = 40000 // hidden row 0's bias slot
	e, err := ann.EnsembleFromState(ann.EnsembleState{Nets: []ann.NetworkState{st}})
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{space: space, schema: schema, ensemble: e,
		scaler: ann.TargetScaler{Mean: 0, Std: 1}, logT: true}
	if _, err := m.WithEngine(ann.EngineInt16); err == nil {
		t.Fatal("int16 quantiser accepted a bias of 40000")
	}
	q8 := engineView(t, m, ann.EngineInt8)
	const M = 20
	if !samePredicted(q8.TopM(M), bruteTopM(m, M)) {
		t.Fatal("int8 view's top-M differs from the scalar specification")
	}
}

// TestMemberFingerprints pins the generation-tag behaviour the
// incremental path keys on: stable across calls, sensitive to weights.
func TestMemberFingerprints(t *testing.T) {
	m1 := trainedTestModel(t)
	m2 := retrainedTestModel(t)
	a := m1.ensemble.MemberFingerprints(nil)
	b := m1.ensemble.MemberFingerprints(nil)
	if !tagsEqual(a, b) {
		t.Fatal("member fingerprints unstable across calls")
	}
	if tagsEqual(a, m2.ensemble.MemberFingerprints(nil)) {
		t.Fatal("retrained ensemble produced identical member fingerprints")
	}
	// Same space, same samples (only the epoch count differs), so the
	// non-weight fingerprint must match: the member tags alone carry the
	// retrain.
	if m1.sweepFingerprint() != m2.sweepFingerprint() {
		t.Fatal("sweep fingerprints differ despite identical non-weight inputs")
	}
}
