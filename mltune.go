// Package mltune is a machine-learning-based auto-tuner for OpenCL-style
// kernels, reproducing Falch & Elster, "Machine Learning Based Auto-tuning
// for Enhanced OpenCL Performance Portability" (IPDPSW 2015).
//
// Tuning is organised around three pieces:
//
//   - a Measurer, which times one configuration of a tuning Space on the
//     system under tuning (simulated devices, the functional OpenCL-style
//     runtime, or any user function via FuncMeasurer);
//   - a Session, which owns the measurer plus the shared run machinery: a
//     measurement memo cache, a deterministic parallel gather pool whose
//     results are seed-stable regardless of worker count, and an observer
//     event stream (stage started, sample measured, candidate accepted);
//   - a Strategy, a named search algorithm run against a session. Four are
//     registered out of the box: "ml" (the paper's two-stage tuner),
//     "random", "hillclimb" and "exhaustive". Registry lists them;
//     RegisterStrategy adds custom ones.
//
// Quick start:
//
//	m, _ := mltune.NewMeasurer("convolution", mltune.NvidiaK40, mltune.Size{})
//	s, _ := mltune.NewSession(m, mltune.DefaultOptions(42))
//	res, _ := s.Run(context.Background(), "ml")
//	fmt.Println(res.Best, res.BestSeconds)
//
// The context cancels or times out a run mid-measurement; an interrupted
// run returns a *PartialError wrapping ctx.Err(). Every Measurer
// implementation receives the context, so even a single slow measurement
// can honour cancellation.
//
// A Session is safe for concurrent Measure callers: goroutines that miss
// the memo cache for the same configuration are coalesced into a single
// measurer invocation (single-flight), so exactly one measurement happens
// per configuration and results never depend on goroutine scheduling.
//
// The trained performance model — the artifact that makes tuning portable
// across devices — persists with Model.Save and reloads with LoadModel on
// any machine, predicting bit-identically.
//
// Underneath sit the paper's three parameterized benchmarks
// (internal/bench), the simulated devices with analytic performance
// models (internal/devsim), a functional OpenCL-style runtime
// (internal/opencl), and the bagged neural networks (internal/ann).
package mltune

import (
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/experiments"
	"repro/internal/opencl"
	"repro/internal/tuning"
)

// Re-exported types: the public surface of the library. The underlying
// packages live under internal/ to keep their implementation details
// private; these aliases are the supported names.
type (
	// Benchmark is a parameterized benchmark (Table 1 of the paper).
	Benchmark = bench.Benchmark
	// Size selects a benchmark problem size; the zero value means the
	// paper's defaults.
	Size = bench.Size
	// Device is a simulated OpenCL device with a performance model.
	Device = devsim.Device
	// Space is a tuning-parameter space.
	Space = tuning.Space
	// Param is one tuning parameter.
	Param = tuning.Param
	// Config is one point of a tuning space.
	Config = tuning.Config
	// Measurer measures the execution time of one configuration.
	Measurer = core.Measurer
	// FuncMeasurer adapts a plain function to the Measurer interface.
	FuncMeasurer = core.FuncMeasurer
	// SimMeasurer measures benchmark configurations on a simulated
	// device via analytic profiles (fast; paper-scale experiments).
	SimMeasurer = core.SimMeasurer
	// RuntimeMeasurer measures by executing kernels on the functional
	// OpenCL-style runtime (slow; verifies output).
	RuntimeMeasurer = core.RuntimeMeasurer
	// Sample is one measured configuration.
	Sample = core.Sample
	// Options configures a tuning run (N, M, seed, model).
	Options = core.Options
	// ModelConfig configures the neural-network performance model.
	ModelConfig = core.ModelConfig
	// Model is a trained performance model.
	Model = core.Model
	// Result is the outcome of a strategy run; all strategies share it.
	Result = core.Result
	// Session owns one tuning run's measurer, memo cache, gather pool
	// and observer stream.
	Session = core.Session
	// SessionOption customises a Session at construction time.
	SessionOption = core.SessionOption
	// Strategy is a named, pluggable search algorithm over a Session.
	Strategy = core.Strategy
	// Observer receives session events.
	Observer = core.Observer
	// Event is one entry of a session's observer stream.
	Event = core.Event
	// EventKind classifies observer events.
	EventKind = core.EventKind
	// PartialError reports a run interrupted (usually by context
	// cancellation) after completing part of its measurements.
	PartialError = core.PartialError
)

// Observer event kinds.
const (
	EventStageStarted      = core.EventStageStarted
	EventSampleMeasured    = core.EventSampleMeasured
	EventCandidateAccepted = core.EventCandidateAccepted
	EventStageFinished     = core.EventStageFinished
)

// Canonical device names (the devices of the paper's evaluation).
const (
	IntelI7      = devsim.IntelI7
	NvidiaK40    = devsim.NvidiaK40
	AMD7970      = devsim.AMD7970
	NvidiaC2070  = devsim.NvidiaC2070
	NvidiaGTX980 = devsim.NvidiaGTX980
)

// Benchmarks returns the paper's three benchmarks.
func Benchmarks() []Benchmark { return bench.All() }

// BenchmarkNames returns the registered benchmark names.
func BenchmarkNames() []string { return bench.Names() }

// LookupBenchmark returns the named benchmark.
func LookupBenchmark(name string) (Benchmark, error) { return bench.Lookup(name) }

// DeviceNames returns the simulated device catalog names.
func DeviceNames() []string { return devsim.Names() }

// LookupDevice returns the named simulated device.
func LookupDevice(name string) (*Device, error) { return devsim.Lookup(name) }

// PaperDevices returns the Intel i7 3770, Nvidia K40 and AMD HD 7970.
func PaperDevices() []*Device { return devsim.PaperDevices() }

// NewMeasurer builds the standard measurer: benchmark by name, device by
// name, analytic profiles, best-of-3 measurement protocol.
func NewMeasurer(benchmark, device string, size Size) (*SimMeasurer, error) {
	b, err := bench.Lookup(benchmark)
	if err != nil {
		return nil, err
	}
	d, err := devsim.Lookup(device)
	if err != nil {
		return nil, err
	}
	return core.NewSimMeasurer(b, d, size, 3)
}

// NewRuntimeMeasurer builds a measurer that executes the benchmark's
// kernel on the functional OpenCL-style runtime, verifying every output
// against the sequential reference.
func NewRuntimeMeasurer(benchmark, device string, size Size, seed int64) (*RuntimeMeasurer, error) {
	b, err := bench.Lookup(benchmark)
	if err != nil {
		return nil, err
	}
	d, err := opencl.DeviceByName(device)
	if err != nil {
		return nil, err
	}
	return core.NewRuntimeMeasurer(b, d, size, seed, true)
}

// NewSession validates the measurer and options and builds a tuning
// session. Strategies run against it with Session.Run; the session's
// memo cache carries measurements across runs.
func NewSession(m Measurer, opts Options, sopts ...SessionOption) (*Session, error) {
	return core.NewSession(m, opts, sopts...)
}

// WithWorkers bounds the session gather pool's parallelism (default:
// GOMAXPROCS). The worker count never affects results, only wall-clock
// time.
func WithWorkers(n int) SessionOption { return core.WithWorkers(n) }

// WithObserver subscribes an observer to the session's event stream.
func WithObserver(o Observer) SessionOption { return core.WithObserver(o) }

// Registry returns the names of all registered strategies, sorted.
func Registry() []string { return core.Registry() }

// LookupStrategy returns the registered strategy with the given name.
func LookupStrategy(name string) (Strategy, error) { return core.LookupStrategy(name) }

// RegisterStrategy adds a custom strategy to the global registry. It
// fails on an empty name or a duplicate registration.
func RegisterStrategy(st Strategy) error { return core.RegisterStrategy(st) }

// MustRegisterStrategy is RegisterStrategy but panics on error; intended
// for package init functions.
func MustRegisterStrategy(st Strategy) { core.MustRegisterStrategy(st) }

// LoadModel reads a model previously written by Model.Save. The tuning
// space is rebuilt from the saved header, so a model trained on one
// device can be reloaded and queried anywhere, with bit-identical
// predictions.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// LoadModelFile loads a model from the named file (see LoadModel).
func LoadModelFile(path string) (*Model, error) { return core.LoadModelFile(path) }

// DefaultOptions returns the paper's highlighted configuration
// (N=2000 training samples, M=200 second-stage candidates).
func DefaultOptions(seed int64) Options { return core.DefaultOptions(seed) }

// DefaultModelConfig returns the paper's model: k=11 bagged networks with
// one hidden layer of 30 sigmoid neurons, trained on log(time).
func DefaultModelConfig(seed int64) ModelConfig { return core.DefaultModelConfig(seed) }

// TrainModel fits a performance model to measured samples (stage 1 of
// the tuner, usable standalone for prediction studies).
func TrainModel(space *Space, samples []Sample, invalid []Config, cfg ModelConfig) (*Model, error) {
	return core.TrainModel(space, samples, invalid, cfg)
}

// SuggestM estimates the smallest second-stage size M that contains the
// true optimum with the given confidence, from a trained model and
// held-out validation samples (the paper's §5.3 proposal).
func SuggestM(model *Model, validation []Sample, confidence float64, trials int, seed int64) (int, error) {
	return core.SuggestM(model, validation, confidence, trials, seed)
}

// IsInvalid reports whether err marks an invalid tuning configuration
// (as opposed to an internal failure).
func IsInvalid(err error) bool { return devsim.IsInvalid(err) }

// Tuning-space constructors for user-defined kernels.

// NewSpace builds a tuning space from parameters.
func NewSpace(name string, params ...Param) *Space { return tuning.NewSpace(name, params...) }

// NewParam builds a parameter with explicit values.
func NewParam(name string, values ...int) Param { return tuning.NewParam(name, values...) }

// Pow2Param builds a power-of-two-valued parameter in [lo, hi].
func Pow2Param(name string, lo, hi int) Param { return tuning.Pow2Param(name, lo, hi) }

// BoolParam builds an on/off parameter.
func BoolParam(name string) Param { return tuning.BoolParam(name) }

// Experiments returns the ids of the paper's tables and figures that can
// be regenerated (see cmd/experiments).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table/figure at the given scale
// ("smoke", "quick" or "paper"), writing the text report to w.
func RunExperiment(id, scale string, seed int64, w io.Writer) error {
	sc, err := experiments.ParseScale(scale)
	if err != nil {
		return err
	}
	e, err := experiments.Lookup(id)
	if err != nil {
		return err
	}
	rep, err := e.Execute(&experiments.Ctx{Scale: sc, Seed: seed})
	if err != nil {
		return err
	}
	if w != nil {
		rep.WriteText(w)
	}
	return nil
}
