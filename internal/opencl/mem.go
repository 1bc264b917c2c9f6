package opencl

import "fmt"

// Buffer is a global-memory array of float32, mirroring clCreateBuffer.
type Buffer struct {
	data []float32
}

// NewBuffer allocates a zeroed global-memory buffer of n elements.
func (c *Context) NewBuffer(n int) *Buffer {
	return &Buffer{data: make([]float32, n)}
}

// NewBufferFrom allocates a buffer initialized with a copy of src
// (CL_MEM_COPY_HOST_PTR).
func (c *Context) NewBufferFrom(src []float32) *Buffer {
	return &Buffer{data: append([]float32(nil), src...)}
}

// Len returns the element count.
func (b *Buffer) Len() int { return len(b.data) }

// Read copies the buffer contents to the host (clEnqueueReadBuffer).
func (b *Buffer) Read() []float32 { return append([]float32(nil), b.data...) }

// Write copies src into the buffer (clEnqueueWriteBuffer).
func (b *Buffer) Write(src []float32) error {
	if len(src) != len(b.data) {
		return fmt.Errorf("opencl: write of %d elements into buffer of %d", len(src), len(b.data))
	}
	copy(b.data, src)
	return nil
}

// Image2D is a 2D image object with float32 texels.
type Image2D struct {
	w, h int
	data []float32
}

// NewImage2D creates a 2D image from row-major data of size w*h.
func (c *Context) NewImage2D(w, h int, data []float32) (*Image2D, error) {
	if !c.device.ImageSupport() {
		return nil, &MemError{Reason: "device has no image support"}
	}
	if len(data) != w*h {
		return nil, &MemError{Reason: fmt.Sprintf("image2d %dx%d needs %d texels, got %d", w, h, w*h, len(data))}
	}
	return &Image2D{w: w, h: h, data: append([]float32(nil), data...)}, nil
}

// Width returns the image width.
func (im *Image2D) Width() int { return im.w }

// Height returns the image height.
func (im *Image2D) Height() int { return im.h }

// texel returns the texel at (x, y) with clamp-to-edge addressing.
func (im *Image2D) texel(x, y int) float32 {
	x = clampInt(x, 0, im.w-1)
	y = clampInt(y, 0, im.h-1)
	return im.data[y*im.w+x]
}

// Image3D is a 3D image object with float32 texels, used for the
// raycasting volume.
type Image3D struct {
	w, h, d int
	data    []float32
}

// NewImage3D creates a 3D image from x-major data of size w*h*d.
func (c *Context) NewImage3D(w, h, d int, data []float32) (*Image3D, error) {
	if !c.device.ImageSupport() {
		return nil, &MemError{Reason: "device has no image support"}
	}
	if len(data) != w*h*d {
		return nil, &MemError{Reason: fmt.Sprintf("image3d %dx%dx%d needs %d texels, got %d", w, h, d, w*h*d, len(data))}
	}
	return &Image3D{w: w, h: h, d: d, data: append([]float32(nil), data...)}, nil
}

// Dims returns the image dimensions.
func (im *Image3D) Dims() (w, h, d int) { return im.w, im.h, im.d }

func (im *Image3D) texel(x, y, z int) float32 {
	x = clampInt(x, 0, im.w-1)
	y = clampInt(y, 0, im.h-1)
	z = clampInt(z, 0, im.d-1)
	return im.data[(z*im.h+y)*im.w+x]
}

// MemError reports an invalid memory-object operation.
type MemError struct{ Reason string }

func (e *MemError) Error() string { return "opencl: " + e.Reason }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
