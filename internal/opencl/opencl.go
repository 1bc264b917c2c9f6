// Package opencl implements a simulated OpenCL-style runtime in pure Go.
//
// It mirrors the host-side object model of OpenCL 1.2 — platforms,
// devices, contexts, command queues, buffers, images, programs, kernels
// and profiling events — and executes kernels functionally: work-groups
// run concurrently on a goroutine pool, the work-items of a group run as
// goroutines synchronized by real barriers, local memory is shared per
// group, and images are sampled with clamping and optional linear
// filtering.
//
// Kernels are Go functions written against the WorkItem API instead of
// OpenCL C, parameterized through build options that play the role of
// preprocessor macros (paper §5.1). The runtime reproduces the OpenCL
// error surface the auto-tuner depends on: builds fail for bad options,
// launches fail for invalid work-group geometry or resource exhaustion.
//
// Execution is instrumented: per-launch counters of arithmetic and of
// memory operations by logical space are aggregated into a
// kprofile.Profile, and the profiling Event reports a simulated device
// time obtained by costing that traced profile on the attached devsim
// device model. Functional output and simulated timing therefore come
// from a single execution.
package opencl

import (
	"sort"

	"repro/internal/devsim"
)

// Platform groups the devices of one vendor, mirroring clGetPlatformIDs.
type Platform struct {
	name    string
	devices []*Device
}

// Name returns the platform name.
func (p *Platform) Name() string { return p.name }

// Devices returns the platform's devices.
func (p *Platform) Devices() []*Device { return append([]*Device(nil), p.devices...) }

// Platforms enumerates the simulated platforms, one per vendor present in
// the devsim catalog, each exposing that vendor's devices.
func Platforms() []*Platform {
	byVendor := map[string]*Platform{}
	for _, name := range devsim.Names() {
		sim := devsim.MustLookup(name)
		desc := sim.Descriptor()
		p, ok := byVendor[desc.Vendor]
		if !ok {
			p = &Platform{name: desc.Vendor + " OpenCL (simulated)"}
			byVendor[desc.Vendor] = p
		}
		p.devices = append(p.devices, &Device{sim: sim})
	}
	vendors := make([]string, 0, len(byVendor))
	for v := range byVendor {
		vendors = append(vendors, v)
	}
	sort.Strings(vendors)
	out := make([]*Platform, 0, len(vendors))
	for _, v := range vendors {
		out = append(out, byVendor[v])
	}
	return out
}

// DeviceByName returns the device with the given devsim catalog name.
func DeviceByName(name string) (*Device, error) {
	sim, err := devsim.Lookup(name)
	if err != nil {
		return nil, err
	}
	return &Device{sim: sim}, nil
}
