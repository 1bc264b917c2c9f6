package opencl

import (
	"fmt"
	"sync"
)

// barrier is a reusable cyclic barrier for the work-items of one group,
// implementing the semantics of OpenCL's barrier(CLK_LOCAL_MEM_FENCE):
// every work-item of the group must reach it before any may continue.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	phase   int
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	phase := b.phase
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		for b.phase == phase {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// workGroup is the shared state of one executing work-group.
type workGroup struct {
	bar *barrier

	mu    sync.Mutex
	local map[string][]float32
}

// localFloats returns the group-shared local buffer for key, allocating
// it on first use. All work-items must request the same size.
func (g *workGroup) localFloats(key string, n int) []float32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if buf, ok := g.local[key]; ok {
		if len(buf) != n {
			panic(fmt.Sprintf("opencl: local buffer %q requested with size %d then %d", key, len(buf), n))
		}
		return buf
	}
	if g.local == nil {
		g.local = make(map[string][]float32)
	}
	buf := make([]float32, n)
	g.local[key] = buf
	return buf
}

// localBytes returns the total local memory allocated by the group.
func (g *workGroup) localBytes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	total := 0
	for _, buf := range g.local {
		total += 4 * len(buf)
	}
	return total
}

// counters accumulates instrumentation during functional execution. Each
// work-item counts privately; totals are merged per launch.
type counters struct {
	flops        int64
	loopIters    int64
	globalReads  int64
	globalWrites int64
	imageReads   int64
	constReads   int64
	localReads   int64
	localWrites  int64
}

func (c *counters) add(o *counters) {
	c.flops += o.flops
	c.loopIters += o.loopIters
	c.globalReads += o.globalReads
	c.globalWrites += o.globalWrites
	c.imageReads += o.imageReads
	c.constReads += o.constReads
	c.localReads += o.localReads
	c.localWrites += o.localWrites
}

// WorkItem is the execution context handed to a kernel body: work-item
// identity queries, argument access, instrumented memory operations,
// barriers and local-memory allocation — the parts of the OpenCL C
// built-in library the benchmarks need.
type WorkItem struct {
	lidX, lidY   int
	grpX, grpY   int
	group        *workGroup
	kernel       *Kernel
	c            counters
	barrierCount int
}

// LocalIDX returns get_local_id(0).
func (wi *WorkItem) LocalIDX() int { return wi.lidX }

// LocalIDY returns get_local_id(1).
func (wi *WorkItem) LocalIDY() int { return wi.lidY }

// GroupIDX returns get_group_id(0).
func (wi *WorkItem) GroupIDX() int { return wi.grpX }

// GroupIDY returns get_group_id(1).
func (wi *WorkItem) GroupIDY() int { return wi.grpY }

// Barrier synchronizes all work-items of the group.
func (wi *WorkItem) Barrier() {
	wi.barrierCount++
	wi.group.bar.await()
}

// LocalFloats returns the group-shared local-memory buffer named key with
// n float32 elements, allocating it on first use.
func (wi *WorkItem) LocalFloats(key string, n int) []float32 {
	return wi.group.localFloats(key, n)
}

// --- argument access ---------------------------------------------------

func (wi *WorkItem) arg(i int) any {
	if i < 0 || i >= len(wi.kernel.args) {
		panic(fmt.Sprintf("opencl: kernel %q has no argument %d", wi.kernel.name, i))
	}
	return wi.kernel.args[i]
}

// ArgBuffer returns argument i as a *Buffer.
func (wi *WorkItem) ArgBuffer(i int) *Buffer { return wi.arg(i).(*Buffer) }

// ArgImage2D returns argument i as a *Image2D.
func (wi *WorkItem) ArgImage2D(i int) *Image2D { return wi.arg(i).(*Image2D) }

// ArgImage3D returns argument i as a *Image3D.
func (wi *WorkItem) ArgImage3D(i int) *Image3D { return wi.arg(i).(*Image3D) }

// ArgInt returns argument i as an int.
func (wi *WorkItem) ArgInt(i int) int { return wi.arg(i).(int) }

// --- instrumented operations --------------------------------------------

// Flops records n arithmetic operations.
func (wi *WorkItem) Flops(n int) { wi.c.flops += int64(n) }

// LoopIter records n executed iterations of a (non-unrolled) loop body,
// feeding the loop-overhead term of the device models.
func (wi *WorkItem) LoopIter(n int) { wi.c.loopIters += int64(n) }

// LoadGlobal reads element i of a global-memory buffer.
func (wi *WorkItem) LoadGlobal(b *Buffer, i int) float32 {
	wi.c.globalReads++
	return b.data[i]
}

// StoreGlobal writes element i of a global-memory buffer.
func (wi *WorkItem) StoreGlobal(b *Buffer, i int, v float32) {
	wi.c.globalWrites++
	b.data[i] = v
}

// LoadConst reads element i of a buffer bound to constant memory.
func (wi *WorkItem) LoadConst(b *Buffer, i int) float32 {
	wi.c.constReads++
	return b.data[i]
}

// LoadLocal reads element i of a local-memory buffer.
func (wi *WorkItem) LoadLocal(mem []float32, i int) float32 {
	wi.c.localReads++
	return mem[i]
}

// StoreLocal writes element i of a local-memory buffer.
func (wi *WorkItem) StoreLocal(mem []float32, i int, v float32) {
	wi.c.localWrites++
	mem[i] = v
}

// ReadImage2D samples a 2D image at integer coordinates (nearest,
// clamp-to-edge).
func (wi *WorkItem) ReadImage2D(im *Image2D, x, y int) float32 {
	wi.c.imageReads++
	return im.texel(x, y)
}

// ReadImage3D samples a 3D image at integer coordinates (nearest,
// clamp-to-edge).
func (wi *WorkItem) ReadImage3D(im *Image3D, x, y, z int) float32 {
	wi.c.imageReads++
	return im.texel(x, y, z)
}
