package opencl

import (
	"fmt"
	"sort"
	"strings"
)

// BuildOptions carries the preprocessor-macro definitions used to
// parameterize kernels, mirroring "-D NAME=VALUE" build options. The
// tuning layer converts a tuning.Config into BuildOptions verbatim.
type BuildOptions map[string]int

// String renders the options as a -D flag list, sorted for stability.
func (o BuildOptions) String() string {
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("-D %s=%d", k, o[k])
	}
	return strings.Join(parts, " ")
}

// Get returns the named option, or def when absent.
func (o BuildOptions) Get(name string, def int) int {
	if v, ok := o[name]; ok {
		return v
	}
	return def
}

// Resources describes what a compiled kernel instance will demand and how
// it will behave, as known after "compilation": the counterpart of the
// resource report a real OpenCL compiler produces (registers, local
// memory) plus the access-pattern declarations the tracing layer cannot
// observe cheaply at run time.
type Resources struct {
	// LocalMemBytes is local memory per work-group.
	LocalMemBytes int
	// RegistersPerItem is the register demand per work-item.
	RegistersPerItem int
	// BarriersPerItem is the number of barriers each work-item executes.
	BarriersPerItem int
	// OutputsPerItemX/Y is the per-item output tile shape.
	OutputsPerItemX, OutputsPerItemY int
	// GlobalReadStride, RowAligned, ImageLocality2D, DivergentFraction,
	// UnrollFactor, DriverUnroll and WorkingSetBytes mirror the same
	// fields of kprofile.Profile.
	GlobalReadStride  int
	RowAligned        bool
	ImageLocality2D   bool
	DivergentFraction float64
	UnrollFactor      int
	DriverUnroll      bool
	WorkingSetBytes   int64
	UsesImage         bool
	UsesLocal         bool
	// ConfigKey identifies the tuning configuration for the stochastic
	// model layers.
	ConfigKey uint64
}

// KernelFunc is the body of a kernel, executed once per work-item.
type KernelFunc func(wi *WorkItem)

// KernelSource is the simulated equivalent of an OpenCL C source file
// containing one kernel: a named compile function that, given a device
// and build options, either produces an executable body plus its resource
// report, or fails with a *BuildError.
type KernelSource struct {
	// Name is the kernel name, as passed to clCreateKernel.
	Name string
	// Compile validates the options for the target device and returns
	// the kernel body and resources.
	Compile func(dev *Device, opts BuildOptions) (KernelFunc, Resources, error)
}

// Program is a built program: compiled kernels ready to be launched.
type Program struct {
	ctx     *Context
	kernels map[string]*Kernel
}

// BuildError reports a failed program build, mirroring
// CL_BUILD_PROGRAM_FAILURE with its build log.
type BuildError struct {
	Kernel string
	Log    string
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("opencl: build of kernel %q failed: %s", e.Kernel, e.Log)
}

// InvalidConfig marks build failures as configuration-validity errors so
// that the auto-tuner's devsim.IsInvalid check treats them uniformly.
func (e *BuildError) InvalidConfig() {}

// BuildProgram compiles the given kernel sources with the options,
// mirroring clBuildProgram. All sources share the same options.
func (c *Context) BuildProgram(opts BuildOptions, sources ...KernelSource) (*Program, error) {
	p := &Program{ctx: c, kernels: make(map[string]*Kernel, len(sources))}
	for _, src := range sources {
		if src.Compile == nil {
			return nil, &BuildError{Kernel: src.Name, Log: "kernel has no compile function"}
		}
		fn, res, err := src.Compile(c.device, opts)
		if err != nil {
			if _, ok := err.(*BuildError); ok {
				return nil, err
			}
			return nil, &BuildError{Kernel: src.Name, Log: err.Error()}
		}
		if res.UnrollFactor < 1 {
			res.UnrollFactor = 1
		}
		if res.OutputsPerItemX < 1 {
			res.OutputsPerItemX = 1
		}
		if res.OutputsPerItemY < 1 {
			res.OutputsPerItemY = 1
		}
		p.kernels[src.Name] = &Kernel{name: src.Name, fn: fn, res: res}
	}
	return p, nil
}

// Kernel returns the named kernel, mirroring clCreateKernel.
func (p *Program) Kernel(name string) (*Kernel, error) {
	k, ok := p.kernels[name]
	if !ok {
		return nil, fmt.Errorf("opencl: program has no kernel %q", name)
	}
	return k, nil
}

// Kernel is a compiled kernel with bound arguments.
type Kernel struct {
	name string
	fn   KernelFunc
	res  Resources
	args []any
}

// Name returns the kernel name.
func (k *Kernel) Name() string { return k.name }

// SetArgs binds the kernel arguments in positional order, mirroring
// repeated clSetKernelArg calls. Supported argument types: *Buffer,
// *Image2D, *Image3D, int, float32 and float64.
func (k *Kernel) SetArgs(args ...any) error {
	for i, a := range args {
		switch a.(type) {
		case *Buffer, *Image2D, *Image3D, int:
		default:
			return fmt.Errorf("opencl: kernel %q arg %d has unsupported type %T", k.name, i, a)
		}
	}
	k.args = append(k.args[:0], args...)
	return nil
}
