package tensor

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Allocator abstracts tensor allocation so operator implementations can be
// pointed at a recycling arena instead of the garbage collector. The plain
// package-level New is the default allocator.
type Allocator interface {
	// Get returns a zero-filled tensor of the given shape.
	Get(shape ...int) *Tensor
}

// Arena is a size-class buffer pool for tensor storage. Steady-state
// inference and training allocate the same activation shapes every pass;
// routing those allocations through an arena and releasing them at the end
// of each pass turns per-pass garbage into a handful of reused buffers.
//
// Tensors acquired from an arena are reference counted: Get returns a
// tensor with one reference, Retain adds one, and Release drops one,
// returning the storage to the arena when the count reaches zero. Release
// on a GC-managed tensor (arena == nil) is a no-op, so callers can release
// mixed populations — e.g. an executor's activation set, which also
// contains feeds, parameters and view tensors — unconditionally.
//
// The arena is safe for concurrent use: the replicas of a server share one
// and acquire output buffers from their own goroutines at once.
type Arena struct {
	mu   sync.Mutex
	free map[int][][]float32 // power-of-two capacity class → buffers
	idle int64               // bytes held in free (what FreeBytes reports)

	gets, hits int64
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make(map[int][][]float32)}
}

// sizeClass rounds n up to the next power of two (minimum 64 elements, so
// tiny scalars don't fragment the class map).
func sizeClass(n int) int {
	if n <= 64 {
		return 64
	}
	return 1 << bits.Len(uint(n-1))
}

// Get returns a zero-filled tensor of the given shape with one reference,
// reusing a pooled buffer when one of the right class is free.
func (a *Arena) Get(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if n == 0 {
		return New(shape...)
	}
	class := sizeClass(n)
	a.mu.Lock()
	a.gets++
	var buf []float32
	if list := a.free[class]; len(list) > 0 {
		buf = list[len(list)-1]
		a.free[class] = list[:len(list)-1]
		a.idle -= int64(class) * 4
		a.hits++
	}
	a.mu.Unlock()
	if buf == nil {
		buf = make([]float32, class)
	}
	data := buf[:n]
	for i := range data {
		data[i] = 0
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data, arena: a, refs: 1}
}

// GetBuf returns a raw float32 scratch buffer with at least n elements of
// capacity, sliced to length n. Unlike Get it builds no Tensor header and
// does not zero the storage — contents are unspecified — so steady-state
// callers (kernel pack buffers, im2col columns) allocate nothing once the
// arena is warm. Pair with PutBuf.
func (a *Arena) GetBuf(n int) []float32 {
	if n <= 0 {
		return nil
	}
	class := sizeClass(n)
	a.mu.Lock()
	a.gets++
	var buf []float32
	if list := a.free[class]; len(list) > 0 {
		buf = list[len(list)-1]
		a.free[class] = list[:len(list)-1]
		a.idle -= int64(class) * 4
		a.hits++
	}
	a.mu.Unlock()
	if buf == nil {
		buf = make([]float32, class)
	}
	return buf[:n]
}

// PutBuf returns a buffer obtained from GetBuf to the arena. Passing a
// buffer whose capacity is not a size class (i.e. one that did not come
// from this package) would poison the class map, so such buffers are
// dropped for the GC instead.
func (a *Arena) PutBuf(buf []float32) {
	c := cap(buf)
	if c == 0 || c != sizeClass(c) {
		return
	}
	a.put(buf[:0:c])
}

// put returns a buffer to its size class.
func (a *Arena) put(buf []float32) {
	class := cap(buf)
	a.mu.Lock()
	a.free[class] = append(a.free[class], buf[:0])
	a.idle += int64(class) * 4
	a.mu.Unlock()
}

// ArenaStats reports allocation traffic through an arena.
type ArenaStats struct {
	// Gets counts Get calls; Hits counts those served from pooled buffers.
	Gets, Hits int64
}

// Stats returns a snapshot of the arena's traffic counters.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{Gets: a.gets, Hits: a.hits}
}

// FreeBytes returns the number of bytes currently pooled (free and awaiting
// reuse). Checked-out buffers are not counted; the figure is the arena's
// idle footprint, which the /metrics arena_bytes gauge reports. It is a
// counter kept by Get, GetBuf and the put path, so reading it is O(1).
func (a *Arena) FreeBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.idle
}

// Retain adds a reference to an arena-backed tensor and returns t. It is a
// no-op for GC-managed tensors.
func (t *Tensor) Retain() *Tensor {
	if t.arena != nil {
		atomic.AddInt32(&t.refs, 1)
	}
	return t
}

// Release drops a reference; when the count reaches zero the storage goes
// back to the arena and the tensor becomes unusable (its data is detached
// so stale use fails loudly instead of silently reading recycled memory).
// Release on a GC-managed tensor is a no-op.
func (t *Tensor) Release() {
	if t.arena == nil {
		return
	}
	if atomic.AddInt32(&t.refs, -1) == 0 {
		buf := t.data[:0]
		a := t.arena
		t.data = nil
		t.arena = nil
		a.put(buf[:0:cap(buf)])
	}
}

// ArenaBacked reports whether t currently holds a live arena buffer.
func (t *Tensor) ArenaBacked() bool { return t.arena != nil }

// Overlaps reports whether t and o share any underlying storage. Executors
// use it to avoid recycling an activation buffer that a view tensor (for
// example a zero-copy split output returned to the caller) still aliases.
func (t *Tensor) Overlaps(o *Tensor) bool {
	if len(t.data) == 0 || len(o.data) == 0 {
		return false
	}
	a0 := uintptr(unsafe.Pointer(unsafe.SliceData(t.data)))
	a1 := a0 + uintptr(len(t.data))*4
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(o.data)))
	b1 := b0 + uintptr(len(o.data))*4
	return a0 < b1 && b0 < a1
}
