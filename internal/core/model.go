package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/ann"
	"repro/internal/tuning"
)

// Sample is one measured configuration. Device, when the model is
// trained with ModelConfig.DeviceFeatures, carries the normalised device
// features (tuning.DeviceVector) of the hardware the measurement was
// taken on — the per-sample device label that lets one portable model
// pool training data across devices. It stays nil for per-device models.
type Sample struct {
	Config  tuning.Config
	Seconds float64
	Device  []float64
}

// ModelConfig controls performance-model construction. The JSON form is
// the wire format of mltuned's POST /v1/train endpoint.
type ModelConfig struct {
	// Ensemble configures the bagged neural networks (paper: k=11
	// networks, one hidden layer of 30 sigmoid neurons).
	Ensemble ann.EnsembleConfig `json:"ensemble,omitempty"`
	// LogTransform trains on log(time) so the squared-error objective
	// minimizes *relative* error (paper §5.2). Disabling it is an
	// ablation, not a recommended mode.
	LogTransform bool `json:"log_transform,omitempty"`
	// InvalidPenalty, when positive, implements the paper's suggested
	// future-work improvement (§7/§8): instead of ignoring invalid
	// configurations, they are added to the training set with a target
	// this many times the slowest valid measurement, teaching the model
	// to avoid invalid regions. Zero reproduces the paper's behaviour.
	InvalidPenalty float64 `json:"invalid_penalty,omitempty"`
	// DeviceFeatures widens the feature schema with the device block
	// (tuning.DeviceFieldNames): every training sample must then carry
	// its device's feature vector, and the trained model is *portable* —
	// it predicts for any device once bound with Model.WithDevice.
	// Incompatible with InvalidPenalty: configuration validity is
	// device-specific, so pooled training drops invalid records instead
	// of penalising them.
	DeviceFeatures bool `json:"device_features,omitempty"`
}

// DefaultModelConfig returns the paper's model configuration.
func DefaultModelConfig(seed int64) ModelConfig {
	return ModelConfig{
		Ensemble:     ann.DefaultEnsembleConfig(seed),
		LogTransform: true,
	}
}

// Model is a trained performance model over a tuning space: it predicts
// execution time in seconds from a configuration. A model trained with
// ModelConfig.DeviceFeatures is *portable*: its feature schema includes
// the device block, and it must be bound to a concrete device's feature
// vector (WithDevice) before any prediction.
type Model struct {
	space    *tuning.Space
	schema   *tuning.FeatureSchema
	ensemble *ann.Ensemble
	scaler   ann.TargetScaler
	logT     bool
	// tail is the bound feature tail of a portable model (the device
	// vector WithDevice fixed); nil both for parameter-only models and
	// for an unbound portable model.
	tail []float64
	// engine is the selected inference engine (WithEngine); nil selects
	// the float64 reference. The scalar Predict path always runs the
	// reference regardless. The engine drives the batch paths; top-M
	// screening always runs through the int16 sweeper (see topMSweep).
	engine ann.Engine
	// persistVersion records the persistence version the model was loaded
	// from; 0 for freshly trained models (see WeightFormat).
	persistVersion int
}

// eng returns the selected engine, defaulting to the float64 reference.
// Hand-built models (tests, experiments) construct Model literals without
// an engine; they get reference behaviour.
func (m *Model) eng() ann.Engine {
	if m.engine != nil {
		return m.engine
	}
	return ann.Float64Engine{E: m.ensemble}
}

// WithEngine returns a view of the model whose batch predictions run on
// the named inference engine (see ann.EngineNames).
// The view shares the trained weights with m; like WithDevice it is
// cheap and safe to hold per serving context. Selecting a quantised
// engine can fail: quantisation refuses topologies its error proof does
// not cover and diverged weight magnitudes.
//
// Engine semantics: batch predictions are within the engine's proven
// error bound of the reference (bit-identical for the float64 engine).
// TopM does not depend on the engine at all: every view screens through
// the int16 sweeper and ranks only exact reference scores, so the
// returned set, order and exact-pass count are engine-independent.
func (m *Model) WithEngine(name string) (*Model, error) {
	eng, err := ann.NewEngine(name, m.ensemble)
	if err != nil {
		return nil, err
	}
	view := *m
	view.engine = eng
	return &view, nil
}

// int16Engine returns the view's engine when it already is the int16
// engine, and otherwise quantises the float64 weights.
func (m *Model) int16Engine() (*ann.QuantizedEnsemble, error) {
	if q, ok := m.engine.(*ann.QuantizedEnsemble); ok {
		return q, nil
	}
	return ann.QuantizeEnsemble(m.ensemble)
}

// EngineName returns the selected engine's name (ann.EngineFloat64 when
// none was selected).
func (m *Model) EngineName() string { return m.eng().Name() }

// EngineErrorBound returns the selected engine's proven worst-case
// deviation from the reference on the raw model output (0 for the
// reference itself).
func (m *Model) EngineErrorBound() float64 { return m.eng().ErrorBound() }

// TrainModel fits the paper's model to the measured samples. invalid
// lists configurations that failed to run; they are ignored unless
// cfg.InvalidPenalty > 0.
func TrainModel(space *tuning.Space, samples []Sample, invalid []tuning.Config, cfg ModelConfig) (*Model, error) {
	return TrainModelProgress(context.Background(), space, samples, invalid, cfg, nil)
}

// TrainModelProgress is TrainModel with cancellation and a per-member
// completion callback (see ann.TrainEnsembleProgress): progress, when
// non-nil, is called serially after each ensemble member finishes, and
// cancelling ctx aborts training at the next member boundary with
// ctx.Err(). The trained model is bit-identical to TrainModel for every
// cfg.Ensemble.Workers value.
func TrainModelProgress(ctx context.Context, space *tuning.Space, samples []Sample, invalid []tuning.Config, cfg ModelConfig, progress func(done, total int)) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: cannot train model without samples")
	}
	schema := tuning.ParamSchema(space)
	if cfg.DeviceFeatures {
		if cfg.InvalidPenalty > 0 {
			return nil, fmt.Errorf("core: InvalidPenalty is incompatible with DeviceFeatures (validity is device-specific; drop invalid records from pooled training instead)")
		}
		schema = tuning.NewFeatureSchema(space, tuning.WithDeviceBlock())
	}
	tailDim := schema.TailDim()

	n := len(samples)
	extra := 0
	if cfg.InvalidPenalty > 0 {
		extra = len(invalid)
	}
	xs := make([][]float64, 0, n+extra)
	ys := make([]float64, 0, n+extra)
	slowest := 0.0
	for _, s := range samples {
		if s.Seconds <= 0 {
			return nil, fmt.Errorf("core: sample %s has non-positive time %g", s.Config, s.Seconds)
		}
		if len(s.Device) != tailDim {
			if cfg.DeviceFeatures {
				return nil, fmt.Errorf("core: sample %s carries %d device features, schema wants %d (attach tuning.DeviceVector per sample)",
					s.Config, len(s.Device), tailDim)
			}
			return nil, fmt.Errorf("core: sample %s carries device features but cfg.DeviceFeatures is off", s.Config)
		}
		xs = append(xs, schema.Encode(s.Config, s.Device, make([]float64, 0, schema.Dim())))
		ys = append(ys, target(s.Seconds, cfg.LogTransform))
		if s.Seconds > slowest {
			slowest = s.Seconds
		}
	}
	if cfg.InvalidPenalty > 0 {
		penalty := target(slowest*cfg.InvalidPenalty, cfg.LogTransform)
		for _, c := range invalid {
			xs = append(xs, schema.Encode(c, nil, make([]float64, 0, schema.Dim())))
			ys = append(ys, penalty)
		}
	}

	scaler, err := ann.FitTargetScaler(ys)
	if err != nil {
		return nil, err
	}
	ensemble, err := ann.TrainEnsembleProgress(ctx, xs, scaler.ApplyAll(ys), cfg.Ensemble, progress)
	if err != nil {
		return nil, err
	}
	return &Model{
		space:    space,
		schema:   schema,
		ensemble: ensemble,
		scaler:   scaler,
		logT:     cfg.LogTransform,
		engine:   ann.Float64Engine{E: ensemble},
	}, nil
}

func target(seconds float64, logT bool) float64 {
	if logT {
		return math.Log(seconds)
	}
	return seconds
}

// Space returns the model's tuning space.
func (m *Model) Space() *tuning.Space { return m.space }

// Schema returns the model's feature schema.
func (m *Model) Schema() *tuning.FeatureSchema { return m.schema }

// Portable reports whether the model was trained with device features
// and can predict for any device once bound with WithDevice.
func (m *Model) Portable() bool { return m.schema.HasDevice() }

// Bound reports whether a portable model has been bound to a device.
// Parameter-only models are trivially bound.
func (m *Model) Bound() bool { return !m.Portable() || m.tail != nil }

// WithDevice returns a view of a portable model bound to the given
// device feature vector (tuning.DeviceVector of the target descriptor):
// every prediction method of the view — Predict, the batch paths, TopM —
// answers for that device. The view shares the trained weights with m
// and is safe for concurrent use alongside other views; m itself is
// unmodified, so one portable model serves many devices at once.
func (m *Model) WithDevice(device []float64) (*Model, error) {
	if !m.Portable() {
		return nil, fmt.Errorf("core: model has no device features to bind (train with ModelConfig.DeviceFeatures)")
	}
	if want := m.schema.TailDim(); len(device) != want {
		return nil, fmt.Errorf("core: device vector has %d features, schema wants %d", len(device), want)
	}
	bound := *m
	bound.tail = append([]float64(nil), device...)
	return &bound, nil
}

// Ensemble returns the underlying bagged networks.
func (m *Model) Ensemble() *ann.Ensemble { return m.ensemble }

// PredictScratch carries the per-goroutine buffers for prediction.
type PredictScratch struct {
	ps  *ann.PredictScratch
	buf []float64
}

// NewScratch allocates prediction buffers.
func (m *Model) NewScratch() *PredictScratch {
	return &PredictScratch{ps: m.ensemble.NewScratch(), buf: make([]float64, 0, m.schema.Dim())}
}

// Predict returns the predicted execution time of cfg in seconds.
// Safe for concurrent use with distinct scratches.
func (m *Model) Predict(cfg tuning.Config, s *PredictScratch) float64 {
	s.buf = m.schema.Encode(cfg, m.tail, s.buf[:0])
	return m.finish(m.ensemble.Predict(s.buf, s.ps))
}

// finish maps one raw ensemble output back to seconds: invert the target
// standardization, then undo the log transform. Shared by the scalar and
// batched paths so they stay bit-identical by construction.
func (m *Model) finish(y float64) float64 {
	y = m.scaler.Invert(y)
	if m.logT {
		return math.Exp(y)
	}
	return y
}

// predictBlock is the block size of blocked batch prediction: large
// enough to amortise per-block overhead, small enough that a block's
// activations stay cache-resident.
const predictBlock = 256

// BatchScratch carries the reusable buffers of blocked batch prediction:
// an encoded feature matrix, the engine's batch buffers and a raw output
// block. A scratch is pinned to the engine it was built for. Like
// PredictScratch it is single-goroutine state.
type BatchScratch struct {
	eng ann.EngineScratch // selected engine's buffers
	e   ann.Engine        // the engine the scratch belongs to
	// Fixed-point fast path, set when e is a quantised (Q14-input)
	// engine — int16 or int8: features are encoded straight into Q14 via
	// the precomputed tables, skipping the float encode and the
	// per-feature rounding.
	q14   ann.Q14Engine
	qxs   []int16
	qtail []int16
	xs    []float64 // block-sample-major encoded features
	raw   []float64 // raw ensemble outputs for one block
	block int
}

// NewBatchScratch allocates blocked batch-prediction buffers for the
// model's selected engine.
func (m *Model) NewBatchScratch() *BatchScratch {
	return m.newBatchScratchFor(m.eng())
}

// newBatchScratchFor allocates a scratch pinned to the given engine; the
// top-M sweep builds one for the exact reference scorer.
func (m *Model) newBatchScratchFor(eng ann.Engine) *BatchScratch {
	s := &BatchScratch{
		eng:   eng.NewScratch(predictBlock),
		e:     eng,
		xs:    make([]float64, 0, predictBlock*m.schema.Dim()),
		raw:   make([]float64, predictBlock),
		block: predictBlock,
	}
	if q, ok := eng.(ann.Q14Engine); ok {
		s.q14 = q
		s.qxs = make([]int16, 0, predictBlock*m.schema.Dim())
		if m.Bound() {
			s.qtail = m.schema.QuantizeTailQ14(m.tail, make([]int16, 0, m.schema.TailDim()))
		}
	}
	return s
}

// PredictBatchWith predicts cfgs in blocks through s, appending the times
// (in cfgs order, seconds) to dst. Under the float64 reference engine,
// predictions are bit-identical to calling Predict per configuration;
// under any other engine they are within the engine's proven error bound
// of that (on the raw output, before the log/scale inversion).
func (m *Model) PredictBatchWith(cfgs []tuning.Config, s *BatchScratch, dst []float64) []float64 {
	for lo := 0; lo < len(cfgs); lo += s.block {
		hi := lo + s.block
		if hi > len(cfgs) {
			hi = len(cfgs)
		}
		s.xs = s.xs[:0]
		for _, cfg := range cfgs[lo:hi] {
			s.xs = m.schema.Encode(cfg, m.tail, s.xs)
		}
		dst = m.predictEncodedBlock(hi-lo, s, dst)
	}
	return dst
}

// PredictIndices predicts the configurations at the given space indices
// in blocks through s, appending the times to dst. It encodes straight
// from the dense indices (tuning.Encoder.EncodeIndex — Q14 tables for
// the int16 engine), so the sweep never materialises a Config: the
// allocation-free primitive behind TopM. Under the reference engine,
// predictions are bit-identical to Predict(space.At(idx)).
func (m *Model) PredictIndices(idxs []int64, s *BatchScratch, dst []float64) []float64 {
	for lo := 0; lo < len(idxs); lo += s.block {
		hi := lo + s.block
		if hi > len(idxs) {
			hi = len(idxs)
		}
		n := hi - lo
		if s.q14 != nil {
			s.qxs = s.qxs[:0]
			for _, idx := range idxs[lo:hi] {
				s.qxs = m.schema.EncodeIndexQ14(idx, s.qtail, s.qxs)
			}
			s.q14.PredictBatchQ14(s.qxs, n, s.eng, s.raw[:n])
			for _, y := range s.raw[:n] {
				dst = append(dst, m.finish(y))
			}
			continue
		}
		s.xs = s.xs[:0]
		for _, idx := range idxs[lo:hi] {
			s.xs = m.schema.EncodeIndex(idx, m.tail, s.xs)
		}
		dst = m.predictEncodedBlock(n, s, dst)
	}
	return dst
}

// predictEncodedBlock runs the count samples encoded in s.xs through the
// scratch's engine and appends the finished times to dst.
func (m *Model) predictEncodedBlock(count int, s *BatchScratch, dst []float64) []float64 {
	s.e.PredictBatch(s.xs, count, s.eng, s.raw[:count])
	for _, y := range s.raw[:count] {
		dst = append(dst, m.finish(y))
	}
	return dst
}

// Predicted pairs a configuration index with its predicted time.
type Predicted struct {
	Index   int64
	Seconds float64
}

// less orders predictions by predicted time, tie-broken on Index. The
// order is total (no two predictions compare equal), which is what makes
// the TopM sweep worker-count invariant: without the tie-break, equal
// predictions would rank by which worker partition they came from.
func (p Predicted) less(q Predicted) bool {
	if p.Seconds != q.Seconds {
		return p.Seconds < q.Seconds
	}
	return p.Index < q.Index
}

// TopM sweeps the entire tuning space — the paper's "predict the
// execution time for all possible configurations" step — and returns the
// M configurations with the lowest predicted times, best first (ties
// broken towards the lower index). The space is screened in blocks
// through the int16 sweeper, whichever engine the view selected, with a
// bracket proven for this model's own weights and feature levels; each
// worker feeds a bounded top-heap, and only configurations whose
// conservative lower bound could still beat the heap's worst entry pay
// the exact reference forward pass. The sweep runs best-first: the
// space's units (aligned subtrees of up to sweepUnitMax configurations)
// are ranked by their screen floor and dealt round-robin by rank to the
// workers, and each worker stops at the first of its units whose floor
// cannot beat its full heap, so the ceiling tightens early, few
// configurations survive to the exact pass, and the work is spread
// evenly over the workers. The heap never holds an
// approximated score — every value that ranks configurations is exact —
// so the returned set and order are identical under every engine and
// every worker count: pruning never changes emitted values (a pruned
// configuration provably loses to M already-seen ones), block
// predictions are bit-identical to the scalar path, and the (Seconds,
// Index) order is total. A model the int16 quantiser refuses is scored
// exactly in full, in index order: same answer, no pruning.
func (m *Model) TopM(M int) []Predicted {
	top, _ := m.topMSweep(M, runtime.GOMAXPROCS(0), nil)
	return top
}

// predictBoundMargin widens the screen's lower bound before it is
// compared against the heap: slack on top of the int16 bracket's own
// allowance for the reference path's float64 rounding, many orders below
// any meaningful time difference, so pruning stays strictly
// conservative.
const predictBoundMargin = 1e-9

// canPrune reports whether the screen's ordering argument holds:
// finish must be monotone, which needs a positive target-scale. Trained
// and persisted models always qualify (FitTargetScaler returns a
// positive Std); this guards hand-built models in tests and experiments.
func (m *Model) canPrune() bool { return m.scaler.Std > 0 }

// rawCeil inverts finish at the heap's current worst time, returning a
// raw-output threshold T such that every y accepted by the finished-space
// test finish(y) ≤ secs satisfies y ≤ T. finish is monotone
// non-decreasing even at the float level (positive-constant multiply,
// constant add and exp are each order-preserving under IEEE rounding),
// so comparing raw lower bounds against T screens at least everything
// the finished-space comparison would — the sweep pays one log per
// block instead of one exp per configuration. The slack term towers over
// every rounding step of the inversion; over-inclusion only costs exact
// re-scores, never correctness.
func (m *Model) rawCeil(secs float64) float64 {
	y := secs
	if m.logT {
		y = math.Log(secs)
	}
	y = (y - m.scaler.Mean) / m.scaler.Std
	return y + 1e-9*(1+math.Abs(y))
}

// newScreen returns the int16 sweeper the top-M sweep screens through,
// bracketed by the bound proven for this model's weights, space and
// bound tail (ann.QuantizedEnsemble.NewSweeper), or nil when no screen
// is sound: the quantiser refuses the model, or a tail feature leaves
// the input domain the int16 error bound is proven on. A layout the
// sweeper rejects only loses the screen.
func (m *Model) newScreen() *ann.QuantSweeper {
	for _, v := range m.tail {
		if !(v >= ann.QuantInputLo && v <= ann.QuantInputHi) {
			return nil
		}
	}
	q, err := m.int16Engine()
	if err != nil {
		return nil
	}
	s, err := q.NewSweeper(m.ensemble, m.schema.Levels(), m.tail)
	if err != nil {
		return nil
	}
	return s
}

// mustBeBound panics when a portable model is asked to predict without
// a device binding: there is no meaningful answer, and the sweep workers
// would otherwise die on an asynchronous encode panic.
func (m *Model) mustBeBound() {
	if !m.Bound() {
		panic("core: portable model is not bound to a device; call Model.WithDevice before predicting")
	}
}

// topM is TopM with an explicit worker count; the invariance tests
// exercise it directly.
func (m *Model) topM(M, workers int) []Predicted {
	top, _ := m.topMSweep(M, workers, nil)
	return top
}

// sweepUnitMax caps the size of a best-first sweep unit: eight
// prediction blocks, few enough units that flooring and sorting them is
// negligible, fine enough that the first units' exact scores already
// sit near the final ceiling.
const sweepUnitMax = 8 * predictBlock

// sweepUnit is one unit of a worker's share of the space: the
// configurations [lo, hi) and a lower bound on their raw screen lb.
type sweepUnit struct {
	lo, hi int64
	floor  float64
}

// unitSize returns the configuration count of the best-first sweep's
// units: the largest digit-aligned subtree — a product of the last
// parameters' arities, in tuning.Space.At's layout — no larger than
// sweepUnitMax, and at least one last-parameter tile.
func (m *Model) unitSize() int64 {
	params := m.space.Params()
	n := int64(len(params[len(params)-1].Values))
	for i := len(params) - 2; i >= 0 && n*int64(len(params[i].Values)) <= sweepUnitMax; i-- {
		n *= int64(len(params[i].Values))
	}
	return n
}

// floorUnits floors every unit of n configurations of the sweeper's
// space (n divides the space: it is a unitSize) and returns them sorted
// by (floor, lo). It returns nil when the sweeper has no floor (a
// topology without prune tables).
func floorUnits(sweep *ann.QuantSweeper, n int64) []sweepUnit {
	units := make([]sweepUnit, 0, sweep.Size()/n)
	for u := int64(0); u < sweep.Size(); u += n {
		f, ok := sweep.Floor(u, n)
		if !ok {
			return nil
		}
		units = append(units, sweepUnit{lo: u, hi: u + n, floor: f})
	}
	sort.Slice(units, func(i, j int) bool {
		if units[i].floor != units[j].floor {
			return units[i].floor < units[j].floor
		}
		return units[i].lo < units[j].lo
	})
	return units
}

// topMSweep is the full-space sweep behind TopM and TopMIncremental.
// seeds, when non-empty, are *exact* reference-scored predictions
// pre-offered into every worker's heap (the incremental warm start):
// with the heap full from block zero, screening engages immediately and
// against a near-final threshold. The scan skips seed indices, and the
// merge deduplicates the seeds every worker's heap holds.
//
// The screen floors every unit of the space once (floorUnits) and deals
// the units out by floor rank: worker w takes ranks w, w+workers, …, so
// every worker starts on some of the best units, wherever they lie in
// index order, and the workers' shares of real work stay even. Each
// worker walks its units in floor order. Once its
// heap is full it stops at the first unit whose floor exceeds the
// ceiling BoundsCeil skips against: every later unit's floor is at least
// as high, so none of its configurations could enter the heap. A worker
// owns its heap and sweeper and shares no mutable state with the
// others, so the exact-pass count is a function of (model, M, workers,
// seeds) alone. An unscreened model, or one whose topology has no
// floor, splits the space into one contiguous partition per worker and
// walks it in index order.
//
// It returns the merged top M and the number of exact forward passes
// paid — the cost the incremental path exists to shrink.
func (m *Model) topMSweep(M, workers int, seeds []Predicted) ([]Predicted, int64) {
	m.mustBeBound()
	size := m.space.Size()
	if int64(M) > size {
		M = int(size)
	}
	if M <= 0 {
		return nil, 0
	}

	if workers < 1 {
		workers = 1
	}
	if int64(workers) > size {
		workers = int(size)
	}
	chunk := (size + int64(workers) - 1) / int64(workers)

	// The heap only ever ranks exact scores, so the exact pass always
	// runs the float64 reference. Screening runs through the int16
	// sweeper whatever the view's engine; its bracket contains the
	// reference prediction, so it cannot change the result set — only
	// how much of the space pays an exact score. Without a screen every
	// configuration is scored exactly.
	screen := m.newScreen()
	prune := screen != nil && m.canPrune()
	var units []sweepUnit
	if prune {
		units = floorUnits(screen, m.unitSize())
	}

	// Seed indices are excluded from the scan below — each
	// already sits in every heap with its exact score, and offering an
	// index twice would let duplicates hold heap slots: the heap's
	// "worst" would then overstate the true M-th best (over-pruning) and
	// the deduplicated merge could come up short of M. Deduping the
	// seeds themselves first keeps that invariant even against a
	// degenerate caller; duplicates are interchangeable because every
	// seed carries the exact reference score.
	var seedIdx []int64
	if len(seeds) > 0 {
		ordered := append([]Predicted(nil), seeds...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].Index < ordered[j].Index })
		uniq := ordered[:0]
		for i, p := range ordered {
			if i > 0 && p.Index == ordered[i-1].Index {
				continue
			}
			uniq = append(uniq, p)
		}
		seeds = uniq
		seedIdx = make([]int64, len(seeds))
		for i, p := range seeds {
			seedIdx[i] = p.Index
		}
	}

	results := make([][]Predicted, workers)
	scoredBy := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exact := m.newRefBatchScratch()
			var sweep *ann.QuantSweeper
			if prune {
				sweep = screen.Fork()
			}
			idxs := make([]int64, 0, exact.block)
			preds := make([]float64, 0, exact.block)
			lb := make([]float64, exact.block)
			ub := make([]float64, exact.block)
			survivors := make([]int64, 0, exact.block)
			var mine []sweepUnit
			if units == nil {
				lo := int64(w) * chunk
				mine = []sweepUnit{{lo: lo, hi: min(lo+chunk, size), floor: math.Inf(-1)}}
			}
			for r := w; r < len(units); r += workers {
				mine = append(mine, units[r])
			}
			var scored int64
			best := newTopHeap(M)
			for _, p := range seeds {
				best.offer(p)
			}
			for _, u := range mine {
				// BoundsCeil's subtree-skip test; later floors are no lower.
				if prune && best.full() && u.floor > m.rawCeil(best.worst().Seconds)+2*predictBoundMargin {
					break
				}
				// seedIdx is sorted and a unit's indices are scanned in
				// order, so one cursor skips the already-scored seeds in
				// O(1) per index.
				nextSeed := sort.Search(len(seedIdx), func(i int) bool { return seedIdx[i] >= u.lo })
				for blockLo := u.lo; blockLo < u.hi; blockLo += int64(exact.block) {
					blockHi := min(blockLo+int64(exact.block), u.hi)
					if prune && best.full() {
						// Screening pass over the sequential block: keep only
						// configurations whose conservative lower bound could
						// still enter the heap. Seed indices are screened too
						// (the sweeper walks the contiguous range) but never
						// collected — their exact scores already sit in the heap.
						n := int(blockHi - blockLo)
						// The admission test runs in raw output space: rawCeil
						// accepts a superset of what finishing each lower bound
						// and comparing times would (including the equal-time,
						// lower-index tie the total order admits), and the extra
						// admissions are resolved by the exact pass like any
						// other survivor.
						rawWorst := m.rawCeil(best.worst().Seconds)
						// The sweeper may skip (+Inf) whole subtrees it proves
						// above the ceiling. One extra margin on the ceiling keeps
						// the skip strictly conservative against the admission test
						// below even at the ulp level: the sweeper proves lb >
						// ceil, the test needs lb − margin > rawWorst to reject,
						// and the margin towers over every rounding step between
						// the two expressions.
						sweep.BoundsCeil(blockLo, n, lb, ub, rawWorst+2*predictBoundMargin)
						survivors = survivors[:0]
						for k := 0; k < n; k++ {
							idx := blockLo + int64(k)
							if nextSeed < len(seedIdx) && seedIdx[nextSeed] == idx {
								nextSeed++
								continue
							}
							if lb[k]-predictBoundMargin <= rawWorst {
								survivors = append(survivors, idx)
							}
						}
						if len(survivors) == 0 {
							continue
						}
						preds = m.PredictIndices(survivors, exact, preds[:0])
						scored += int64(len(survivors))
						for k, t := range preds {
							best.offer(Predicted{Index: survivors[k], Seconds: t})
						}
						continue
					}
					idxs = idxs[:0]
					for idx := blockLo; idx < blockHi; idx++ {
						if nextSeed < len(seedIdx) && seedIdx[nextSeed] == idx {
							nextSeed++
							continue
						}
						idxs = append(idxs, idx)
					}
					if len(idxs) == 0 {
						continue
					}
					preds = m.PredictIndices(idxs, exact, preds[:0])
					scored += int64(len(idxs))
					for k, t := range preds {
						best.offer(Predicted{Index: idxs[k], Seconds: t})
					}
				}
			}
			results[w] = best.items()
			scoredBy[w] = scored
		}(w)
	}
	wg.Wait()

	merged := make([]Predicted, 0, workers*M)
	for _, r := range results {
		merged = append(merged, r...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].less(merged[j]) })
	// Deduplicate by index: every worker's heap holds the seeds, with
	// identical exact scores, so duplicates are always adjacent after
	// the sort.
	dedup := merged[:0]
	for i, p := range merged {
		if i > 0 && p.Index == merged[i-1].Index {
			continue
		}
		dedup = append(dedup, p)
	}
	merged = dedup
	if len(merged) > M {
		merged = merged[:M]
	}
	var scored int64
	for _, c := range scoredBy {
		scored += c
	}
	return merged, scored
}

// PredictBatch predicts the times of the given configurations, in order,
// through the blocked batch engine.
func (m *Model) PredictBatch(cfgs []tuning.Config) []float64 {
	return m.PredictBatchWith(cfgs, m.NewBatchScratch(), make([]float64, 0, len(cfgs)))
}

// topHeap keeps the M smallest offered items (in Predicted.less order)
// as a bounded max-heap.
type topHeap struct {
	cap  int
	heap []Predicted // max-heap by Predicted.less
}

func newTopHeap(capacity int) *topHeap {
	return &topHeap{cap: capacity, heap: make([]Predicted, 0, capacity)}
}

// full reports whether the heap holds its full complement of M items.
func (h *topHeap) full() bool { return len(h.heap) >= h.cap }

// worst returns the M-th best item seen so far; only valid when full.
func (h *topHeap) worst() Predicted { return h.heap[0] }

func (h *topHeap) offer(p Predicted) {
	if len(h.heap) < h.cap {
		h.heap = append(h.heap, p)
		h.up(len(h.heap) - 1)
		return
	}
	if !p.less(h.heap[0]) {
		return
	}
	h.heap[0] = p
	h.down(0)
}

func (h *topHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.heap[parent].less(h.heap[i]) {
			return
		}
		h.heap[parent], h.heap[i] = h.heap[i], h.heap[parent]
		i = parent
	}
}

func (h *topHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.heap[largest].less(h.heap[l]) {
			largest = l
		}
		if r < n && h.heap[largest].less(h.heap[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.heap[i], h.heap[largest] = h.heap[largest], h.heap[i]
		i = largest
	}
}

func (h *topHeap) items() []Predicted {
	out := append([]Predicted(nil), h.heap...)
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}
