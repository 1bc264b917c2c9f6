package opencl

import (
	"sync/atomic"
	"testing"

	"repro/internal/devsim"
)

func k40Context(t *testing.T) *Context {
	t.Helper()
	dev, err := DeviceByName(devsim.NvidiaK40)
	if err != nil {
		t.Fatal(err)
	}
	return dev.NewContext()
}

func TestPlatforms(t *testing.T) {
	ps := Platforms()
	if len(ps) != 3 { // AMD, Intel, Nvidia
		t.Fatalf("got %d platforms, want 3", len(ps))
	}
	total := 0
	for _, p := range ps {
		if p.Name() == "" {
			t.Errorf("platform with empty name: %+v", p)
		}
		total += len(p.Devices())
	}
	if total != 5 {
		t.Errorf("got %d devices across platforms, want 5", total)
	}
}

func TestDeviceQueries(t *testing.T) {
	dev, err := DeviceByName(devsim.AMD7970)
	if err != nil {
		t.Fatal(err)
	}
	if dev.MaxWorkGroupSize() != 256 {
		t.Errorf("MaxWorkGroupSize = %d", dev.MaxWorkGroupSize())
	}
	if dev.LocalMemSize() != 32<<10 {
		t.Errorf("LocalMemSize = %d", dev.LocalMemSize())
	}
	if !dev.ImageSupport() {
		t.Error("image support missing")
	}
	if _, err := DeviceByName("bogus"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestBufferReadWrite(t *testing.T) {
	ctx := k40Context(t)
	b := ctx.NewBuffer(4)
	if b.Len() != 4 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := b.Write([]float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got := b.Read()
	got[0] = 99 // Read must return a copy
	if b.Read()[0] != 1 {
		t.Error("Read did not copy")
	}
	if err := b.Write([]float32{1}); err == nil {
		t.Error("size-mismatched write accepted")
	}
}

func TestImage2DSampling(t *testing.T) {
	ctx := k40Context(t)
	img, err := ctx.NewImage2D(2, 2, []float32{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if img.Width() != 2 || img.Height() != 2 {
		t.Fatalf("dims = %dx%d", img.Width(), img.Height())
	}
	// Clamp-to-edge addressing.
	if got := img.texel(-5, 0); got != 0 {
		t.Errorf("texel(-5,0) = %g", got)
	}
	if got := img.texel(7, 7); got != 3 {
		t.Errorf("texel(7,7) = %g", got)
	}
	if _, err := ctx.NewImage2D(3, 3, []float32{1}); err == nil {
		t.Error("wrong texel count accepted")
	}
}

func TestImage3DSampling(t *testing.T) {
	ctx := k40Context(t)
	data := make([]float32, 8)
	for i := range data {
		data[i] = float32(i)
	}
	img, err := ctx.NewImage3D(2, 2, 2, data)
	if err != nil {
		t.Fatal(err)
	}
	wi := &WorkItem{kernel: &Kernel{}}
	if got := wi.ReadImage3D(img, 1, 1, 1); got != 7 {
		t.Errorf("ReadImage3D = %g, want 7", got)
	}
	// Clamp-to-edge addressing.
	if got := wi.ReadImage3D(img, -1, 5, 0); got != 2 {
		t.Errorf("ReadImage3D(-1,5,0) = %g, want 2", got)
	}
	if wi.c.imageReads != 2 {
		t.Errorf("image reads counted = %d, want 2", wi.c.imageReads)
	}
}

// testKernel returns a kernel that writes global-id-derived values and
// exercises barriers plus local memory. Its ids assume the 8x8 NDRange
// in 4x4 groups that the tests launch it with.
func testKernel(counter *int64) KernelSource {
	const localX, localY, globalX = 4, 4, 8
	return KernelSource{
		Name: "testkernel",
		Compile: func(dev *Device, opts BuildOptions) (KernelFunc, Resources, error) {
			if opts.Get("fail", 0) == 1 {
				return nil, Resources{}, &BuildError{Kernel: "testkernel", Log: "asked to fail"}
			}
			res := Resources{
				LocalMemBytes:    4 * 16,
				RegistersPerItem: 8,
				BarriersPerItem:  1,
				OutputsPerItemX:  1, OutputsPerItemY: 1,
				GlobalReadStride: 1,
				UnrollFactor:     1,
				UsesLocal:        true,
			}
			fn := func(wi *WorkItem) {
				atomic.AddInt64(counter, 1)
				out := wi.ArgBuffer(0)
				scale := wi.ArgInt(1)
				loc := wi.LocalFloats("scratch", 16)
				lid := wi.LocalIDY()*localX + wi.LocalIDX()
				wi.StoreLocal(loc, lid%16, float32(lid))
				wi.Barrier()
				v := wi.LoadLocal(loc, lid%16)
				_ = v
				idx := (wi.GroupIDY()*localY+wi.LocalIDY())*globalX + wi.GroupIDX()*localX + wi.LocalIDX()
				wi.StoreGlobal(out, idx, float32(scale*idx))
				wi.Flops(2)
				wi.LoopIter(1)
			}
			return fn, res, nil
		},
	}
}

func TestEnqueueNDRangeExecutesAllItems(t *testing.T) {
	ctx := k40Context(t)
	var count int64
	prog, err := ctx.BuildProgram(BuildOptions{}, testKernel(&count))
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.Kernel("testkernel")
	if err != nil {
		t.Fatal(err)
	}
	out := ctx.NewBuffer(64)
	if err := k.SetArgs(out, 2); err != nil {
		t.Fatal(err)
	}
	ev, err := ctx.NewQueue().EnqueueNDRange(k, 8, 8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if count != 64 {
		t.Errorf("executed %d work-items, want 64", count)
	}
	vals := out.Read()
	for i, v := range vals {
		if v != float32(2*i) {
			t.Fatalf("out[%d] = %g, want %g", i, v, float32(2*i))
		}
	}
	if ev.Seconds() <= 0 {
		t.Errorf("event time %v", ev.Seconds())
	}
	prof := ev.Profile()
	if prof.GlobalWrites != 64 || prof.LocalWrites != 64 || prof.LocalReads != 64 {
		t.Errorf("traced counts wrong: %+v", prof)
	}
	if prof.Flops != 128 {
		t.Errorf("traced flops = %g, want 128", prof.Flops)
	}
	if prof.LocalMemBytes != 64 {
		t.Errorf("traced local mem = %d, want 64", prof.LocalMemBytes)
	}
}

func TestEnqueueValidation(t *testing.T) {
	ctx := k40Context(t)
	var count int64
	prog, _ := ctx.BuildProgram(BuildOptions{}, testKernel(&count))
	k, _ := prog.Kernel("testkernel")
	out := ctx.NewBuffer(64)
	_ = k.SetArgs(out, 1)

	cases := []struct {
		name           string
		gx, gy, lx, ly int
	}{
		{"non-dividing", 8, 8, 3, 4},
		{"zero local", 8, 8, 0, 4},
		{"oversized group", 4096, 1024, 2048, 1}, // 2048 > 1024 on K40
	}
	for _, c := range cases {
		_, err := ctx.NewQueue().EnqueueNDRange(k, c.gx, c.gy, c.lx, c.ly)
		if err == nil {
			t.Errorf("%s: launch accepted", c.name)
			continue
		}
		if _, ok := err.(*LaunchError); !ok {
			t.Errorf("%s: got %T, want *LaunchError", c.name, err)
		}
		if !devsim.IsInvalid(err) {
			t.Errorf("%s: LaunchError not recognized as invalid-config", c.name)
		}
	}
}

func TestBuildFailure(t *testing.T) {
	ctx := k40Context(t)
	var count int64
	_, err := ctx.BuildProgram(BuildOptions{"fail": 1}, testKernel(&count))
	if err == nil {
		t.Fatal("build did not fail")
	}
	if _, ok := err.(*BuildError); !ok {
		t.Fatalf("got %T, want *BuildError", err)
	}
	if !devsim.IsInvalid(err) {
		t.Error("BuildError not recognized as invalid-config")
	}
}

func TestKernelLookupAndArgs(t *testing.T) {
	ctx := k40Context(t)
	var count int64
	prog, _ := ctx.BuildProgram(BuildOptions{}, testKernel(&count))
	if _, err := prog.Kernel("missing"); err == nil {
		t.Error("missing kernel lookup succeeded")
	}
	k, _ := prog.Kernel("testkernel")
	if err := k.SetArgs(struct{}{}); err == nil {
		t.Error("unsupported arg type accepted")
	}
}

func TestBuildOptionsString(t *testing.T) {
	o := BuildOptions{"b": 2, "a": 1}
	if got := o.String(); got != "-D a=1 -D b=2" {
		t.Errorf("String = %q", got)
	}
	if o.Get("a", 9) != 1 || o.Get("zz", 9) != 9 {
		t.Error("Get defaults wrong")
	}
}

func TestBarrierSynchronizesGroup(t *testing.T) {
	// Every work-item writes its id to local memory before the barrier;
	// after the barrier every item must see every other item's write.
	ctx := k40Context(t)
	const localX, localY, globalX = 8, 8, 16
	src := KernelSource{
		Name: "barriercheck",
		Compile: func(dev *Device, opts BuildOptions) (KernelFunc, Resources, error) {
			res := Resources{OutputsPerItemX: 1, OutputsPerItemY: 1, UnrollFactor: 1, BarriersPerItem: 1}
			fn := func(wi *WorkItem) {
				n := localX * localY
				loc := wi.LocalFloats("ids", n)
				lid := wi.LocalIDY()*localX + wi.LocalIDX()
				wi.StoreLocal(loc, lid, 1)
				wi.Barrier()
				var sum float32
				for i := 0; i < n; i++ {
					sum += wi.LoadLocal(loc, i)
				}
				out := wi.ArgBuffer(0)
				gid := (wi.GroupIDY()*localY+wi.LocalIDY())*globalX + wi.GroupIDX()*localX + wi.LocalIDX()
				wi.StoreGlobal(out, gid, sum)
			}
			return fn, res, nil
		},
	}
	prog, err := ctx.BuildProgram(BuildOptions{}, src)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := prog.Kernel("barriercheck")
	out := ctx.NewBuffer(256)
	_ = k.SetArgs(out)
	if _, err := ctx.NewQueue().EnqueueNDRange(k, globalX, globalX, localX, localY); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Read() {
		if v != 64 {
			t.Fatalf("item %d saw %g writes, want 64 (barrier broken)", i, v)
		}
	}
}

func TestEventTimesVaryAcrossLaunches(t *testing.T) {
	// The queue's repetition counter gives each launch fresh noise.
	ctx := k40Context(t)
	var count int64
	prog, _ := ctx.BuildProgram(BuildOptions{}, testKernel(&count))
	k, _ := prog.Kernel("testkernel")
	out := ctx.NewBuffer(64)
	_ = k.SetArgs(out, 1)
	q := ctx.NewQueue()
	e1, err := q.EnqueueNDRange(k, 8, 8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := q.EnqueueNDRange(k, 8, 8, 4, 4)
	if e1.Seconds() == e2.Seconds() {
		t.Error("two launches returned identical noisy timings")
	}
}
