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
	// q16 and q8 are the quantised engine the view selected with
	// WithEngine (at most one is set); both nil select the float64
	// reference. The scalar Predict path always runs the reference.
	q16 *ann.QuantizedEnsemble
	q8  *ann.Quantized8Ensemble
	// path is how the view's batch scratches predict, picked by
	// predictPathOf each time WithEngine or WithDevice makes a view; the
	// zero value is the float64 reference.
	path predictPath
	// screen holds the view's top-M screen, built on first use and
	// shared by the view's sweeps and int16 scorers. WithEngine and
	// WithDevice give each view its own; nil (a hand-built Model) builds
	// a fresh screen per use.
	screen *viewScreen
	// persistVersion records the persistence version the model was loaded
	// from; 0 for freshly trained models (see WeightFormat).
	persistVersion int
}

// WithEngine returns a view of the model whose batch predictions run on
// the named inference engine (see ann.EngineNames), under the rule of
// predictPathOf. The view shares the trained weights with m; like
// WithDevice it is cheap and safe to hold per serving context. Selecting
// a quantised engine can fail: quantisation refuses topologies its error
// proof does not cover and diverged weight magnitudes.
//
// Engine semantics: batch predictions are within the engine's proven
// error bound of the reference (bit-identical for the float64 engine).
// TopM does not depend on the engine at all: every view screens through
// the int16 sweeper and ranks only exact reference scores, so the
// returned set, order and exact-pass count are engine-independent.
func (m *Model) WithEngine(name string) (*Model, error) {
	view := *m
	view.q16, view.q8 = nil, nil
	var err error
	switch name {
	case "", ann.EngineFloat64:
	case ann.EngineInt16:
		view.q16, err = ann.QuantizeEnsemble(m.ensemble)
	case ann.EngineInt8:
		view.q8, err = ann.Quantize8Ensemble(m.ensemble)
	default:
		err = fmt.Errorf("core: unknown engine %q (want one of %q)", name, ann.EngineNames())
	}
	if err != nil {
		return nil, err
	}
	view.path, view.screen = view.predictPathOf(), new(viewScreen)
	return &view, nil
}

// predictPath is one of the ways a view predicts.
type predictPath uint8

const (
	// predictFloat64 runs the float64 reference block pass, bit-identical
	// to Predict.
	predictFloat64 predictPath = iota
	// predictLevels scores each configuration from the screen's level
	// tables (ann.IndexScorer), bit-identical to the int16 engine.
	predictLevels
	// predictInt8 runs the int8 engine's Q14 block pass.
	predictInt8
)

// predictPathOf picks how the view predicts. A quantised engine serves
// only a bound view whose device tail lies inside [QuantInputLo,
// QuantInputHi], the domain its error bound is proven on: int16 then
// scores from the screen's level tables, and int8 runs its Q14 block
// pass. Every other view, and an int16 view whose screen the sweeper
// refuses (see NewBatchScratch), runs the float64 reference.
func (m *Model) predictPathOf() predictPath {
	switch {
	case !m.Bound() || !m.tailInDomain():
		return predictFloat64
	case m.q16 != nil:
		return predictLevels
	case m.q8 != nil:
		return predictInt8
	}
	return predictFloat64
}

// tailInDomain reports whether every bound tail feature lies inside the
// quantisers' input domain.
func (m *Model) tailInDomain() bool {
	for _, v := range m.tail {
		if !(v >= ann.QuantInputLo && v <= ann.QuantInputHi) {
			return false
		}
	}
	return true
}

// viewScreen is a view's top-M screen, the sweep order it walks and the
// merged level rows (ann.ScoreTables) its int16 scorers sum, each built
// once, on first use, and read-only after.
type viewScreen struct {
	once  sync.Once
	sweep *ann.QuantSweeper
	order *ann.SweepOrder
	// perm, when set before first use, replaces sweepPerm's order; tests
	// force orders through it.
	perm []int
	// rowsOnce builds rows from sweep, for the first scratch that scores
	// from it; top-M sweeps never build it.
	rowsOnce sync.Once
	rows     *ann.ScoreTables
}

// sweeper returns m's screen and the order it walks the space in,
// building both on first use; nil when no screen is sound (see
// newScreen). Sweeps fork it, so one view's concurrent sweeps share no
// sweeper state.
func (h *viewScreen) sweeper(m *Model) (*ann.QuantSweeper, *ann.SweepOrder) {
	if h == nil {
		h = new(viewScreen)
	}
	h.once.Do(func() { h.sweep, h.order = m.newScreen(h.perm) })
	return h.sweep, h.order
}

// tables returns the merged level rows of m's screen, building both on
// first use; nil when the view has no screen. They score space indices
// whatever order the screen walks.
func (h *viewScreen) tables(m *Model) *ann.ScoreTables {
	if sweep, order := h.sweeper(m); sweep != nil {
		h.rowsOnce.Do(func() { h.rows = sweep.ScoreTables(order) })
	}
	return h.rows
}

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
		screen:   new(viewScreen),
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
	bound.path, bound.screen = bound.predictPathOf(), new(viewScreen)
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

// BatchScratch carries the reusable buffers of one view's batch
// prediction: a scorer over the view's level tables, or the block
// buffers of its int8 or float64 pass, sized on first use (fit); the
// zero BatchScratch runs the float64 reference. A scratch is pinned to
// the view it was built for: its engine and its bound device. Like
// PredictScratch it is single-goroutine state.
type BatchScratch struct {
	// score, set on a scratch of a view that scores from level tables,
	// scores PredictIndices one configuration at a time.
	score *ann.IndexScorer
	// q8, set on a scratch of an int8 view, runs the Q14 block pass:
	// features are encoded straight into Q14 through the schema's
	// precomputed tables.
	q8    *ann.Quantized8Ensemble
	q8s   *ann.Quant8Scratch
	qxs   []int16
	qtail []int16
	// ref holds the float64 reference's buffers otherwise.
	ref   *ann.BatchPredictScratch
	xs    []float64 // block-sample-major encoded features
	raw   []float64 // raw ensemble outputs for one block
	block int
}

// NewBatchScratch allocates batch-prediction buffers for the view's
// predict path (see predictPathOf). A scratch of a view that scores from
// level tables holds a scorer over them; the view's first such scratch
// builds its screen and tables, and the others share them. Block buffers
// are allocated by the first PredictIndices, sized to its call.
func (m *Model) NewBatchScratch() *BatchScratch {
	switch m.path {
	case predictLevels:
		if t := m.screen.tables(m); t != nil {
			return &BatchScratch{score: t.NewScorer()}
		}
	case predictInt8:
		return &BatchScratch{q8: m.q8, qtail: m.schema.QuantizeTailQ14(m.tail, nil)}
	}
	return new(BatchScratch)
}

// fit sizes s's block buffers for a call of n configurations: on first
// use to n, at most one block, so a call for one configuration pays for
// one; a later, larger call grows them to a full block.
func (s *BatchScratch) fit(m *Model, n int) {
	if n <= s.block {
		return
	}
	if s.block > 0 || n > predictBlock {
		n = predictBlock
	}
	s.block = n
	s.raw = make([]float64, n)
	if s.q8 != nil {
		s.q8s = s.q8.NewQuant8Scratch(n)
		s.qxs = make([]int16, 0, n*m.schema.Dim())
		return
	}
	s.ref = m.ensemble.NewBatchScratch(n)
	s.xs = make([]float64, 0, n*m.schema.Dim())
}

// PredictIndices predicts the configurations at the given space indices
// in blocks through s, appending the times to dst. It encodes straight
// from the dense indices (tuning.Encoder.EncodeIndex — Q14 tables for
// the int8 pass), so the sweep never materialises a Config: the
// allocation-free primitive behind TopM. A scorer scratch skips the
// encode too and scores each index from the level tables. Under the
// reference, predictions are bit-identical to Predict(space.At(idx)).
func (m *Model) PredictIndices(idxs []int64, s *BatchScratch, dst []float64) []float64 {
	if s.score != nil {
		for _, idx := range idxs {
			dst = append(dst, m.finish(s.score.Score(idx)))
		}
		return dst
	}
	s.fit(m, len(idxs))
	for lo := 0; lo < len(idxs); lo += s.block {
		hi := min(lo+s.block, len(idxs))
		raw := s.raw[:hi-lo]
		if s.q8 != nil {
			s.qxs = s.qxs[:0]
			for _, idx := range idxs[lo:hi] {
				s.qxs = m.schema.EncodeIndexQ14(idx, s.qtail, s.qxs)
			}
			s.q8.PredictBatchQ14(s.qxs, len(raw), s.q8s, raw)
		} else {
			s.xs = s.xs[:0]
			for _, idx := range idxs[lo:hi] {
				s.xs = m.schema.EncodeIndex(idx, m.tail, s.xs)
			}
			m.ensemble.PredictBatch(s.xs, len(raw), s.ref, raw)
		}
		for _, y := range raw {
			dst = append(dst, m.finish(y))
		}
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
// space's units (aligned subtrees of up to sweepUnitMax configurations,
// in the screen's sweep order, see sweepPerm) are ranked by their screen
// floor and dealt round-robin by rank to the
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

// newScreen returns the int16 sweeper the view's top-M sweeps screen
// through and the order it walks the space in (perm, or sweepPerm's when
// perm is nil), bracketed by the bound proven for this model's weights,
// space and bound tail (ann.QuantizedEnsemble.NewOrderedSweeper), or nil
// when no screen is sound: the view is unbound, the quantiser refuses
// the model, or a tail feature leaves the input domain the int16 error
// bound is proven on. A layout the sweeper rejects only loses the
// screen. It reuses the view's int16 engine and otherwise quantises the
// weights.
func (m *Model) newScreen(perm []int) (*ann.QuantSweeper, *ann.SweepOrder) {
	if !m.Bound() || !m.tailInDomain() {
		return nil, nil
	}
	q := m.q16
	if q == nil {
		var err error
		if q, err = ann.QuantizeEnsemble(m.ensemble); err != nil {
			return nil, nil
		}
	}
	if perm == nil {
		perm = m.sweepPerm()
	}
	order, err := ann.NewSweepOrder(spaceArity(m.space), perm)
	if err != nil {
		return nil, nil
	}
	s, err := q.NewOrderedSweeper(m.ensemble, m.schema.Levels(), m.tail, order)
	if err != nil {
		return nil, nil
	}
	return s, order
}

// sweepPerm returns the order the top-M screen walks the parameters in,
// outermost first: ascending arity, so that the fewest-level parameters
// vary slowest, ties broken towards the greater weight influence
// (ann.Ensemble.InputInfluence), and exact ties in declaration order. A
// parameter with few levels, such as a code-path switch, splits the
// space into a few regions of very different speed; varying slowest, it
// lets one unit's floor rule out a whole region. The order depends only
// on the space and the float64 weights, so every engine view and every
// device binding of one model sweeps in the same order.
func (m *Model) sweepPerm() []int {
	arity := spaceArity(m.space)
	infl := m.ensemble.InputInfluence()
	perm := make([]int, len(arity))
	for p := range perm {
		perm[p] = p
	}
	sort.SliceStable(perm, func(i, j int) bool {
		a, b := perm[i], perm[j]
		if arity[a] != arity[b] {
			return arity[a] < arity[b]
		}
		return infl[a] > infl[b]
	})
	return perm
}

// spaceArity returns the level count of each of the space's parameters,
// in declaration order.
func spaceArity(space *tuning.Space) []int64 {
	params := space.Params()
	arity := make([]int64, len(params))
	for p, prm := range params {
		arity[p] = int64(len(prm.Values))
	}
	return arity
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
// units over positions of the given arities, in the order the sweep
// walks them: the largest digit-aligned subtree no larger than
// sweepUnitMax.
func unitSize(arity []int64) int64 { return alignedSize(arity, sweepUnitMax) }

// screenWindow returns the configuration count of the windows the sweep
// screens a unit in, over positions of the given arities in the order
// the sweep walks them: the largest digit-aligned subtree of at most
// predictBlock configurations (64 on raycasting, whose screen walks its
// two 8-level sizes fastest), so that no window edge cuts a tile or a
// subtree the screen could check, or predictBlock when the last position
// alone has more levels. Units are then whole numbers of windows
// whenever the last position has at most predictBlock levels.
func screenWindow(arity []int64) int64 { return min(alignedSize(arity, predictBlock), predictBlock) }

// alignedSize returns the configuration count of the largest
// digit-aligned subtree — a product of the last positions' arities — no
// larger than limit, and at least one last-position tile.
func alignedSize(arity []int64, limit int64) int64 {
	n := arity[len(arity)-1]
	for i := len(arity) - 2; i >= 0 && n*arity[i] <= limit; i-- {
		n *= arity[i]
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
// A screened sweep walks sweep indices, in the order sweepPerm picks:
// units, windows and the seed cursor are in sweep indices, and every
// index the sweep scores exactly is mapped to its space index first, so
// the heap, the ceiling and the answer never see a sweep index.
//
// Each unit is screened in windows (screenWindow) that start and end on
// subtree boundaries, so the sweeper can check every tile before it
// finishes the tile's configurations, and each failed check floors the
// finishes below it (ann.QuantSweeper.BoundsCeil). A window edge inside
// a tile would leave that tile's configurations to be finished one by
// one with no check of the tile, and so with no floors of its own.
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
	// configuration is scored exactly. The sweep works on a fork of the
	// view's screen, so that concurrent sweeps of one view share no
	// sweeper state.
	screen, order := m.screen.sweeper(m)
	if screen != nil {
		screen = screen.Fork()
	}
	prune := screen != nil && m.canPrune()
	// A screened sweep walks the screen's sweep indices, and maps every
	// index it scores exactly back to its space index; an unscreened one
	// walks the space indices themselves.
	arity, spaceIdx := spaceArity(m.space), func(i int64) int64 { return i }
	var units []sweepUnit
	if prune {
		arity, spaceIdx = order.Arity(), order.SpaceIndex
		units = floorUnits(screen, unitSize(arity))
	}
	window := screenWindow(arity)

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
			if prune {
				seedIdx[i] = order.SweepIndex(p.Index)
			}
		}
		sort.Slice(seedIdx, func(i, j int) bool { return seedIdx[i] < seedIdx[j] })
	}

	results := make([][]Predicted, workers)
	scoredBy := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exact := new(BatchScratch)
			var sweep *ann.QuantSweeper
			if prune {
				sweep = screen.Fork()
			}
			idxs := make([]int64, 0, window)
			preds := make([]float64, 0, window)
			lb := make([]float64, window)
			ub := make([]float64, window)
			survivors := make([]int64, 0, window)
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
				// seedIdx holds the seeds' walk indices, sorted, and a unit's
				// indices are scanned in order, so one cursor skips the
				// already-scored seeds in O(1) per index.
				nextSeed := sort.Search(len(seedIdx), func(i int) bool { return seedIdx[i] >= u.lo })
				for blockLo := u.lo; blockLo < u.hi; blockLo += window {
					blockHi := min(blockLo+window, u.hi)
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
								survivors = append(survivors, spaceIdx(idx))
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
						idxs = append(idxs, spaceIdx(idx))
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
