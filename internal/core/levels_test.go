package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/devsim"
	"repro/internal/tuning"
)

// int16Reference returns the int16 engine's from-scratch times for the
// configurations at idxs under view's binding: PredictBatchQ14 of
// EncodeIndexQ14 features on a freshly quantised engine, finished to
// seconds.
func int16Reference(t *testing.T, view *Model, idxs []int64) []float64 {
	t.Helper()
	q, err := ann.QuantizeEnsemble(view.Ensemble())
	if err != nil {
		t.Fatal(err)
	}
	schema := view.Schema()
	qtail := schema.QuantizeTailQ14(view.tail, nil)
	scratch := q.NewQuantScratch(1)
	raw := make([]float64, 1)
	out := make([]float64, len(idxs))
	var qxs []int16
	for i, idx := range idxs {
		qxs = schema.EncodeIndexQ14(idx, qtail, qxs[:0])
		q.PredictBatchQ14(qxs, 1, scratch, raw)
		out[i] = view.finish(raw[0])
	}
	return out
}

// sameBits fails the test unless got and want are bit-identical.
func sameBits(t *testing.T, what string, idxs []int64, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d = %v, want %v", what, idxs[i], got[i], want[i])
		}
	}
}

// int16Views returns the three view setups whose level tables the tests
// check: a parameter-only model, a portable model bound to one device,
// and that view re-bound to another device (whose tables must be
// rebuilt, not kept from the first binding).
func int16Views(t *testing.T) []struct {
	name string
	view *Model
} {
	t.Helper()
	params, err := trainedTestModel(t).WithEngine(ann.EngineInt16)
	if err != nil {
		t.Fatal(err)
	}
	space := goldenSpace()
	portable, err := TrainModel(space, twoDeviceSamples(space, 60), nil, portableTestConfig(29))
	if err != nil {
		t.Fatal(err)
	}
	devA := devsim.MustLookup(devsim.IntelI7).Descriptor()
	devB := devsim.MustLookup(devsim.NvidiaK40).Descriptor()
	unbound, err := portable.WithEngine(ann.EngineInt16)
	if err != nil {
		t.Fatal(err)
	}
	if unbound.NewBatchScratch().score != nil || unbound.screen.sweep != nil {
		t.Fatal("an unbound portable int16 view built level tables")
	}
	boundA, err := unbound.WithDevice(tuning.DeviceVector(&devA, nil))
	if err != nil {
		t.Fatal(err)
	}
	reboundB, err := boundA.WithDevice(tuning.DeviceVector(&devB, nil))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		view *Model
	}{{"param-only", params}, {"portable/device-a", boundA}, {"portable/rebound-b", reboundB}}
}

// TestInt16ViewScoresFromLevels pins that a bound int16 view serves
// exactly the int16 engine's values from its level tables: PredictIndices
// over every configuration equals a from-scratch PredictBatchQ14 bit for
// bit, for a parameter-only model, a portable model bound to one device
// and that view re-bound to another.
func TestInt16ViewScoresFromLevels(t *testing.T) {
	for _, c := range int16Views(t) {
		t.Run(c.name, func(t *testing.T) {
			view := c.view
			space := view.Space()
			if sw, _ := view.screen.sweeper(view); sw == nil {
				t.Fatal("bound int16 view has no level tables")
			}
			idxs := make([]int64, space.Size())
			for i := range idxs {
				idxs[i] = int64(i)
			}
			want := int16Reference(t, view, idxs)

			s := view.NewBatchScratch()
			if s.score == nil {
				t.Fatal("bound int16 view's scratch holds no scorer")
			}
			sameBits(t, "PredictIndices", idxs, view.PredictIndices(idxs, s, nil), want)
		})
	}
}

// TestInt16ViewOtherEnginesKeepBlocks pins that only int16 views build
// level tables: the float64 and int8 views keep the engines' block path.
func TestInt16ViewOtherEnginesKeepBlocks(t *testing.T) {
	m := trainedTestModel(t)
	for _, name := range []string{ann.EngineFloat64, ann.EngineInt8} {
		view, err := m.WithEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		if view.NewBatchScratch().score != nil || view.screen.rows != nil {
			t.Errorf("%s view scores from level tables", name)
		}
	}
}

// TestInt16ViewConcurrentScratches shares each view among 8 goroutines,
// each with its own scratch, predicting random indices, while 4 more
// sweep its top 10: the level tables are read-only, each sweep screens
// through its own fork of them, and every value stays the engine's and
// every top-M the brute-force one (run under -race). The merged rows
// are built once per view: not by a top-M sweep, once by the scratches
// the goroutines create, and anew for views derived by WithDevice or
// WithEngine, which never share their parent's build.
func TestInt16ViewConcurrentScratches(t *testing.T) {
	for _, c := range int16Views(t) {
		t.Run(c.name, func(t *testing.T) {
			view := c.view
			view.TopM(3)
			if view.screen.rows != nil {
				t.Fatal("a top-M sweep built the view's merged rows")
			}
			size := view.Space().Size()
			idxs := make([]int64, size)
			for i := range idxs {
				idxs[i] = int64(i)
			}
			want := int16Reference(t, view, idxs)
			wantTop := bruteTopM(view, 10)
			var wg sync.WaitGroup
			errs := make(chan string, 12)
			built := make(chan *ann.ScoreTables, 8)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 3; round++ {
						if !samePredicted(view.TopM(10), wantTop) {
							errs <- "concurrent TopM differs from the brute-force top 10"
							return
						}
					}
				}()
			}
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					s := view.NewBatchScratch()
					built <- view.screen.rows
					batch := make([]int64, 16)
					var got []float64
					for round := 0; round < 50; round++ {
						for i := range batch {
							batch[i] = rng.Int63n(size)
						}
						got = view.PredictIndices(batch, s, got[:0])
						for i, idx := range batch {
							if math.Float64bits(got[i]) != math.Float64bits(want[idx]) {
								errs <- "concurrent PredictIndices differs from the int16 engine"
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			close(built)
			shared := view.screen.rows
			for tables := range built {
				if tables == nil || tables != shared {
					t.Fatal("the view's scratches did not share one build of its merged rows")
				}
			}

			derived := map[string]func() (*Model, error){
				"WithEngine": func() (*Model, error) { return view.WithEngine(ann.EngineInt16) },
			}
			if view.Portable() {
				dev := devsim.MustLookup(devsim.AMD7970).Descriptor()
				derived["WithDevice"] = func() (*Model, error) { return view.WithDevice(tuning.DeviceVector(&dev, nil)) }
			}
			for name, derive := range derived {
				d, err := derive()
				if err != nil {
					t.Fatal(err)
				}
				if d.screen == view.screen || d.screen.rows != nil {
					t.Fatalf("%s view shares its parent's merged rows", name)
				}
				idxs := []int64{0, size / 3, size - 1}
				sameBits(t, name+" view", idxs, d.PredictIndices(idxs, d.NewBatchScratch(), nil), int16Reference(t, d, idxs))
				if d.screen.rows == nil || d.screen.rows == shared || view.screen.rows != shared {
					t.Fatalf("%s view did not build its own merged rows", name)
				}
			}
		})
	}
}

// TestQuantisedViewsOutsideDomainServeReference pins the predict rule's
// domain fallback: an int16 or int8 view bound to a device tail outside
// [QuantInputLo, QuantInputHi], where the Q14 encoder would clamp the
// feature and no error bound holds, serves the float64 reference, bit
// for bit, whether the engine or the device was chosen first.
func TestQuantisedViewsOutsideDomainServeReference(t *testing.T) {
	space := goldenSpace()
	portable, err := TrainModel(space, twoDeviceSamples(space, 60), nil, portableTestConfig(29))
	if err != nil {
		t.Fatal(err)
	}
	dev := devsim.MustLookup(devsim.IntelI7).Descriptor()
	device := tuning.DeviceVector(&dev, nil)
	device[0] = 2 * ann.QuantInputHi
	ref, err := portable.WithDevice(device)
	if err != nil {
		t.Fatal(err)
	}
	idxs := make([]int64, space.Size())
	for i := range idxs {
		idxs[i] = int64(i)
	}
	want := ref.PredictIndices(idxs, ref.NewBatchScratch(), nil)
	for _, name := range []string{ann.EngineInt16, ann.EngineInt8} {
		engineFirst, err := engineView(t, portable, name).WithDevice(device)
		if err != nil {
			t.Fatal(err)
		}
		for order, view := range map[string]*Model{"engine first": engineFirst, "device first": engineView(t, ref, name)} {
			if view.path != predictFloat64 {
				t.Fatalf("%s view (%s) outside the domain predicts on path %d", name, order, view.path)
			}
			sameBits(t, name+" view ("+order+")", idxs, view.PredictIndices(idxs, view.NewBatchScratch(), nil), want)
		}
	}
}

// TestViewBuildsOneScreen pins that a view's sweeps screen through one
// screen, built once: a second TopM on the view leaves the held sweeper
// in place, and WithDevice and WithEngine give the new view its own.
func TestViewBuildsOneScreen(t *testing.T) {
	for _, c := range int16Views(t) {
		t.Run(c.name, func(t *testing.T) {
			for _, name := range ann.EngineNames() {
				view := engineView(t, c.view, name)
				if view.screen.sweep != nil {
					t.Fatalf("%s: WithEngine built the screen", name)
				}
				first := view.TopM(10)
				held := view.screen.sweep
				if held == nil {
					t.Fatalf("%s: TopM left the view without a screen", name)
				}
				if !samePredicted(view.TopM(10), first) || view.screen.sweep != held {
					t.Fatalf("%s: a second TopM built a new screen", name)
				}
				derived := engineView(t, view, name)
				if view.Portable() {
					dev := devsim.MustLookup(devsim.AMD7970).Descriptor()
					var err error
					if derived, err = view.WithDevice(tuning.DeviceVector(&dev, nil)); err != nil {
						t.Fatal(err)
					}
				}
				derived.TopM(10)
				if derived.screen == view.screen || derived.screen.sweep == nil || derived.screen.sweep == held {
					t.Fatalf("%s: the derived view shares its parent's screen", name)
				}
			}
		})
	}
}

// TestViewScreenConcurrentFirstUse races a fresh int16 view's first
// TopM calls against its first NewBatchScratch calls (run under -race):
// all of them share one build of the screen and of its merged rows, and
// every answer is the specification's.
func TestViewScreenConcurrentFirstUse(t *testing.T) {
	m := trainedTestModel(t)
	idxs := []int64{0, 1, m.Space().Size() / 2, m.Space().Size() - 1}
	want := int16Reference(t, m, idxs)
	wantTop := bruteTopM(m, 10)
	view := engineView(t, m, ann.EngineInt16)
	const goroutines = 8
	sweeps := make(chan *ann.QuantSweeper, goroutines)
	rows := make(chan *ann.ScoreTables, goroutines)
	errs := make(chan string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if !samePredicted(view.TopM(10), wantTop) {
					errs <- "concurrent TopM differs from the brute-force top 10"
				}
			} else {
				got := view.PredictIndices(idxs, view.NewBatchScratch(), nil)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						errs <- "concurrent PredictIndices differs from the int16 engine"
						break
					}
				}
				rows <- view.screen.rows
			}
			sweeps <- view.screen.sweep
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	close(sweeps)
	close(rows)
	for s := range sweeps {
		if s == nil || s != view.screen.sweep {
			t.Fatal("concurrent first uses built more than one screen")
		}
	}
	for r := range rows {
		if r == nil || r != view.screen.rows {
			t.Fatal("concurrent scratches built more than one set of merged rows")
		}
	}
}
