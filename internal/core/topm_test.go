package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/devsim"
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
			if q.EngineName() != name {
				t.Fatalf("EngineName() = %q", q.EngineName())
			}
			if name != ann.EngineFloat64 && q.EngineErrorBound() <= 0 {
				t.Fatalf("%s engine reports error bound %g", name, q.EngineErrorBound())
			}
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

// TestInt8ScreensThroughInt16 pins the screen rule: an int8 view screens
// through the int16 engine, so its sweep pays exactly the int16 view's
// exact forward passes and returns the same answer.
func TestInt8ScreensThroughInt16(t *testing.T) {
	const M = 50
	m := trainedTestModel(t)
	q16 := engineView(t, m, ann.EngineInt16).TopMIncremental(M, nil)
	q8 := engineView(t, m, ann.EngineInt8).TopMIncremental(M, nil)
	if q8.Scored != q16.Scored {
		t.Fatalf("int8 view scored %d configs, int16 view %d: the int8 view is not screening through int16",
			q8.Scored, q16.Scored)
	}
	if !samePredicted(q8.Top, q16.Top) {
		t.Fatal("int8 and int16 views returned different top-M sets")
	}
	// Re-engining a quantised view back to the reference drops the screen.
	ref := engineView(t, engineView(t, m, ann.EngineInt8), ann.EngineFloat64)
	if got, want := ref.TopMIncremental(M, nil).Scored, m.TopMIncremental(M, nil).Scored; got != want {
		t.Fatalf("float64 view of an int8 view scored %d configs, the reference %d", got, want)
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
