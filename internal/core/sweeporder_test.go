package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/devsim"
	"repro/internal/tuning"
)

// inOrder returns a view of m whose top-M screen walks the parameters in
// perm's order, outermost first.
func inOrder(m *Model, perm []int) *Model {
	v := *m
	v.screen = &viewScreen{perm: perm}
	return &v
}

// identityPerm returns the declaration order of n parameters.
func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// TestTopMSweepOrders pins that the order the screen walks the space in
// changes only the work, never the answer: under the declaration order,
// the rule's order and five random orders, TopM and TopMIncremental —
// cold, and seeded from a second model's result over the same space —
// return the scalar specification's top M at workers 1–3, for M inside
// one unit and across several.
func TestTopMSweepOrders(t *testing.T) {
	m := unitTestModel(t)
	other := unitTestModelSeed(t, 92)
	P := len(m.space.Params())
	rng := rand.New(rand.NewSource(17))
	orders := [][]int{identityPerm(P), nil}
	for range 5 {
		orders = append(orders, rng.Perm(P))
	}
	for _, M := range []int{50, 1500} {
		want := bruteTopM(m, M)
		prev := other.topMIncremental(M, 2, nil)
		for _, perm := range orders {
			v := inOrder(m, perm)
			if _, order := v.screen.sweeper(v); perm != nil && !slices.Equal(order.Perm(), perm) {
				t.Fatalf("forced order %v, screen walks %v", perm, order.Perm())
			}
			for workers := 1; workers <= 3; workers++ {
				name := fmt.Sprintf("M=%d order=%v workers=%d", M, perm, workers)
				if !samePredicted(v.topM(M, workers), want) {
					t.Fatalf("%s: TopM differs from the specification", name)
				}
				if got := v.topMIncremental(M, workers, nil); !samePredicted(got.Top, want) {
					t.Fatalf("%s: cold TopMIncremental differs from the specification", name)
				}
				if got := v.topMIncremental(M, workers, prev); !samePredicted(got.Top, want) {
					t.Fatalf("%s: seeded TopMIncremental differs from the specification", name)
				}
			}
		}
	}
}

// TestSweepOrderSharedByViews pins that the order depends only on the
// space and the float64 weights: every engine view of a portable model,
// bound to either of two devices, walks the order sweepPerm picks.
func TestSweepOrderSharedByViews(t *testing.T) {
	space := goldenSpace()
	portable, err := TrainModel(space, twoDeviceSamples(space, 60), nil, portableTestConfig(29))
	if err != nil {
		t.Fatal(err)
	}
	want := portable.sweepPerm()
	for _, dev := range []string{devsim.IntelI7, devsim.NvidiaK40} {
		d := devsim.MustLookup(dev).Descriptor()
		for _, name := range ann.EngineNames() {
			byEngine, err := engineView(t, portable, name).WithDevice(tuning.DeviceVector(&d, nil))
			if err != nil {
				t.Fatal(err)
			}
			byDevice, err := portable.WithDevice(tuning.DeviceVector(&d, nil))
			if err != nil {
				t.Fatal(err)
			}
			byDevice = engineView(t, byDevice, name)
			for _, v := range []*Model{byEngine, byDevice} {
				_, order := v.screen.sweeper(v)
				if order == nil || !slices.Equal(order.Perm(), want) {
					t.Fatalf("%s view on %s walks %v, want %v", name, dev, order.Perm(), want)
				}
			}
		}
	}
}

// TestSweepPermPins pins the rule's order on the models the root
// package's TestTopMScoredPins sweeps, trained the same way: the
// raycasting cold fixture (Intel i7, the first 200 valid measurements
// of a seed-201 sample, 200 epochs) walks its five switches, then the
// 5-level unroll, then its four 8-level sizes; the convolution fixture
// (Nvidia K40 at 3 repetitions, the valid part of a 400-configuration
// seed-8 sample, 30 epochs) its five switches, then its four sizes.
// Training is bit-exact only on amd64.
func TestSweepPermPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trained weights, and so the influence ties, are pinned on amd64")
	}
	ray := bench.MustLookup("raycasting")
	meas, err := NewSimMeasurer(ray, devsim.MustLookup(devsim.IntelI7), bench.Size{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	var invalid []tuning.Config
	for _, idx := range ray.Space().SampleIndices(rand.New(rand.NewSource(201)), 8*200) {
		if len(samples) == 200 {
			break
		}
		cfg := ray.Space().At(idx)
		secs, err := meas.Measure(context.Background(), cfg)
		switch {
		case devsim.IsInvalid(err):
			invalid = append(invalid, cfg)
		case err != nil:
			t.Fatal(err)
		default:
			samples = append(samples, Sample{Config: cfg, Seconds: secs})
		}
	}
	mc := DefaultModelConfig(201)
	mc.Ensemble.Train.Epochs = 200
	checkSweepPerm(t, ray.Space(), samples, invalid, mc, []int{8, 4, 5, 6, 7, 9, 2, 3, 0, 1})

	conv := bench.MustLookup("convolution")
	if meas, err = NewSimMeasurer(conv, devsim.MustLookup(devsim.NvidiaK40), bench.Size{}, 3); err != nil {
		t.Fatal(err)
	}
	samples = nil
	for _, cfg := range conv.Space().Sample(rand.New(rand.NewSource(8)), 400) {
		if secs, err := meas.Measure(context.Background(), cfg); err == nil {
			samples = append(samples, Sample{Config: cfg, Seconds: secs})
		}
	}
	mc = DefaultModelConfig(8)
	mc.Ensemble.Train.Epochs = 30
	checkSweepPerm(t, conv.Space(), samples, nil, mc, []int{4, 5, 7, 8, 6, 1, 0, 2, 3})
}

// checkSweepPerm trains a model and checks the order its screen walks.
func checkSweepPerm(t *testing.T, space *tuning.Space, samples []Sample, invalid []tuning.Config, mc ModelConfig, want []int) {
	t.Helper()
	m, err := TrainModel(space, samples, invalid, mc)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.sweepPerm(); !slices.Equal(got, want) {
		t.Errorf("%s: sweep order %v, pinned at %v", space.Name(), got, want)
	}
}
