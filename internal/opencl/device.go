package opencl

import (
	"fmt"

	"repro/internal/devsim"
)

// Device wraps a simulated device model and answers the property queries
// (clGetDeviceInfo) that host code uses to pre-filter invalid
// configurations.
type Device struct {
	sim *devsim.Device
}

// Name returns the device name.
func (d *Device) Name() string { return d.sim.Name() }

// MaxWorkGroupSize returns CL_DEVICE_MAX_WORK_GROUP_SIZE.
func (d *Device) MaxWorkGroupSize() int { return d.sim.Descriptor().MaxWorkGroupSize }

// LocalMemSize returns CL_DEVICE_LOCAL_MEM_SIZE in bytes.
func (d *Device) LocalMemSize() int {
	desc := d.sim.Descriptor()
	return desc.LocalMemLimit()
}

// ImageSupport returns CL_DEVICE_IMAGE_SUPPORT.
func (d *Device) ImageSupport() bool { return d.sim.Descriptor().ImageSupport }

// Sim exposes the underlying performance model (used by the measurement
// layer for cost accounting; host code written against the OpenCL-style
// API does not need it).
func (d *Device) Sim() *devsim.Device { return d.sim }

// String implements fmt.Stringer.
func (d *Device) String() string { return fmt.Sprintf("opencl.Device(%s)", d.sim.Name()) }

// NewContext creates an execution context on the device, mirroring
// clCreateContext.
func (d *Device) NewContext() *Context {
	return &Context{device: d}
}

// Context owns memory objects and programs for one device.
type Context struct {
	device *Device
}

// NewQueue creates an in-order command queue with profiling enabled,
// mirroring clCreateCommandQueue(CL_QUEUE_PROFILING_ENABLE).
func (c *Context) NewQueue() *Queue {
	return &Queue{ctx: c}
}
