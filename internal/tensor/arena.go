package tensor

import (
	"math/bits"
	"sync"
)

// Arena is a size-class pool of raw float32 buffers: kernel scratch (pack
// buffers, im2col columns) and transport receive slabs come from it, so
// steady-state callers stop allocating once it is warm. It is safe for
// concurrent use.
type Arena struct {
	mu   sync.Mutex
	free [64][][]float32 // buffers of capacity class c at free[bits.Len(c)]
	idle int64           // bytes held in free (what FreeBytes reports)
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// sizeClass rounds n up to the next power of two (minimum 64 elements, so
// tiny scalars don't fragment the classes).
func sizeClass(n int) int {
	if n <= 64 {
		return 64
	}
	return 1 << bits.Len(uint(n-1))
}

// GetBuf returns a raw float32 scratch buffer with at least n elements of
// capacity, sliced to length n. It does not zero the storage — contents
// are unspecified — so steady-state callers (kernel pack buffers, im2col
// columns) allocate nothing once the arena is warm. Pair with PutBuf.
func (a *Arena) GetBuf(n int) []float32 {
	if n <= 0 {
		return nil
	}
	class := sizeClass(n)
	list := &a.free[bits.Len(uint(class))]
	a.mu.Lock()
	var buf []float32
	if last := len(*list) - 1; last >= 0 {
		buf, *list = (*list)[last], (*list)[:last]
		a.idle -= int64(class) * 4
	}
	a.mu.Unlock()
	if buf == nil {
		buf = make([]float32, class)
	}
	return buf[:n]
}

// PutBuf returns a buffer obtained from GetBuf to the arena. Passing a
// buffer whose capacity is not a size class (i.e. one that did not come
// from this package) would poison its class, so such buffers are dropped
// for the GC instead.
func (a *Arena) PutBuf(buf []float32) {
	class := cap(buf)
	if class == 0 || class != sizeClass(class) {
		return
	}
	list := &a.free[bits.Len(uint(class))]
	a.mu.Lock()
	*list = append(*list, buf[:0])
	a.idle += int64(class) * 4
	a.mu.Unlock()
}

// FreeBytes returns the number of bytes currently pooled (free and awaiting
// reuse). Checked-out buffers are not counted; the figure is the arena's
// idle footprint, which bounds the slabs a transport rank keeps. It is a
// counter kept by GetBuf and PutBuf, so reading it is O(1).
func (a *Arena) FreeBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.idle
}
