package opencl

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/kprofile"
)

// Queue is an in-order command queue with profiling, mirroring
// clCreateCommandQueue. Launches execute synchronously (the simulated
// equivalent of enqueue + clFinish) and return a profiling Event.
type Queue struct {
	ctx *Context

	mu      sync.Mutex
	launchN uint64
}

// LaunchError reports an NDRange launch rejected for invalid geometry or
// resource exhaustion, mirroring CL_INVALID_WORK_GROUP_SIZE and friends.
type LaunchError struct {
	Kernel string
	Reason string
}

func (e *LaunchError) Error() string {
	return fmt.Sprintf("opencl: launch of kernel %q failed: %s", e.Kernel, e.Reason)
}

// InvalidConfig marks launch failures as configuration-validity errors.
func (e *LaunchError) InvalidConfig() {}

// Event is a profiling event for one completed launch.
type Event struct {
	seconds float64
	profile *kprofile.Profile
}

// Seconds returns the simulated kernel execution time in seconds, the
// equivalent of CL_PROFILING_COMMAND_END minus CL_PROFILING_COMMAND_START.
func (e *Event) Seconds() float64 { return e.seconds }

// Profile returns the operation profile traced during the launch.
func (e *Event) Profile() *kprofile.Profile { return e.profile }

// EnqueueNDRange launches kernel k over a globalX x globalY grid with
// localX x localY work-groups, executes it functionally, and returns a
// profiling event whose time comes from costing the traced operation
// profile on the queue's device model.
func (q *Queue) EnqueueNDRange(k *Kernel, globalX, globalY, localX, localY int) (*Event, error) {
	dev := q.ctx.device
	switch {
	case globalX <= 0 || globalY <= 0 || localX <= 0 || localY <= 0:
		return nil, &LaunchError{Kernel: k.name, Reason: fmt.Sprintf("non-positive NDRange %dx%d / %dx%d", globalX, globalY, localX, localY)}
	case globalX%localX != 0 || globalY%localY != 0:
		return nil, &LaunchError{Kernel: k.name, Reason: fmt.Sprintf("local size %dx%d does not divide global size %dx%d", localX, localY, globalX, globalY)}
	case localX*localY > dev.MaxWorkGroupSize():
		return nil, &LaunchError{Kernel: k.name, Reason: fmt.Sprintf("work-group size %d exceeds device maximum %d", localX*localY, dev.MaxWorkGroupSize())}
	case k.res.LocalMemBytes > dev.LocalMemSize():
		return nil, &LaunchError{Kernel: k.name, Reason: fmt.Sprintf("local memory %d B exceeds device limit %d B", k.res.LocalMemBytes, dev.LocalMemSize())}
	}

	groupsX := globalX / localX
	groupsY := globalY / localY
	total := counters{}
	var totalMu sync.Mutex
	maxLocalBytes := 0

	// Execute work-groups on a bounded worker pool; within each group the
	// work-items run as goroutines joined by the group's barrier.
	type groupIdx struct{ gx, gy int }
	work := make(chan groupIdx)
	workers := runtime.GOMAXPROCS(0)
	if n := groupsX * groupsY; workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				grp := &workGroup{bar: newBarrier(localX * localY)}
				groupTotal := counters{}
				var groupMu sync.Mutex
				var itemWg sync.WaitGroup
				for ly := 0; ly < localY; ly++ {
					for lx := 0; lx < localX; lx++ {
						itemWg.Add(1)
						go func(lx, ly int) {
							defer itemWg.Done()
							wi := &WorkItem{
								lidX: lx, lidY: ly,
								grpX: g.gx, grpY: g.gy,
								group:  grp,
								kernel: k,
							}
							k.fn(wi)
							groupMu.Lock()
							groupTotal.add(&wi.c)
							groupMu.Unlock()
						}(lx, ly)
					}
				}
				itemWg.Wait()
				totalMu.Lock()
				total.add(&groupTotal)
				if lb := grp.localBytes(); lb > maxLocalBytes {
					maxLocalBytes = lb
				}
				totalMu.Unlock()
			}
		}()
	}
	for gy := 0; gy < groupsY; gy++ {
		for gx := 0; gx < groupsX; gx++ {
			work <- groupIdx{gx, gy}
		}
	}
	close(work)
	wg.Wait()

	prof := q.tracedProfile(k, globalX, globalY, localX, localY, &total, maxLocalBytes)

	q.mu.Lock()
	q.launchN++
	rep := q.launchN
	q.mu.Unlock()

	secs, err := dev.sim.Measure(prof, rep)
	if err != nil {
		return nil, err
	}
	return &Event{seconds: secs, profile: prof}, nil
}

// tracedProfile assembles a kprofile.Profile from the launch geometry, the
// kernel's compile-time resource report and the traced counters.
func (q *Queue) tracedProfile(k *Kernel, gX, gY, lX, lY int, c *counters, localBytes int) *kprofile.Profile {
	res := k.res
	if localBytes < res.LocalMemBytes {
		localBytes = res.LocalMemBytes
	}
	return &kprofile.Profile{
		Kernel:            k.name,
		GlobalX:           gX,
		GlobalY:           gY,
		LocalX:            lX,
		LocalY:            lY,
		OutputsPerItemX:   res.OutputsPerItemX,
		OutputsPerItemY:   res.OutputsPerItemY,
		Flops:             float64(c.flops),
		GlobalReads:       float64(c.globalReads),
		GlobalWrites:      float64(c.globalWrites),
		ImageReads:        float64(c.imageReads),
		ConstReads:        float64(c.constReads),
		LocalReads:        float64(c.localReads),
		LocalWrites:       float64(c.localWrites),
		GlobalReadStride:  res.GlobalReadStride,
		ImageLocality2D:   res.ImageLocality2D,
		RowAligned:        res.RowAligned,
		InnerIters:        float64(c.loopIters),
		UnrollFactor:      res.UnrollFactor,
		DriverUnroll:      res.DriverUnroll,
		RegistersPerItem:  res.RegistersPerItem,
		LocalMemBytes:     localBytes,
		BarriersPerItem:   res.BarriersPerItem,
		WorkingSetBytes:   res.WorkingSetBytes,
		DivergentFraction: res.DivergentFraction,
		UsesImage:         res.UsesImage,
		UsesLocal:         res.UsesLocal,
		ConfigKey:         res.ConfigKey,
	}
}
