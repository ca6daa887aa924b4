// Package tensor provides the dense numeric tensor type used throughout
// Deep500-Go. Tensors are row-major float32 buffers with an explicit shape.
// The package deliberately mirrors the "tensor descriptor" abstraction of the
// Deep500 paper (§IV-B): a shape, an element type (fp32 here), and a data
// layout, decoupled from any particular framework backend.
//
// Public entry points: Tensor construction (New, From, Full, Zeros-like
// via New), elementwise math (Add, Sub, Mul, Map), the deterministic
// RNG with the He/Xavier initializers (NewRNG, HeInit, XavierInit,
// RandNormal), and Arena, the size-class pool of raw buffers behind kernel
// scratch and transport slabs.
package tensor

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// scalar-less tensor; use New or From to construct usable values.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor of the given shape. A call with no
// dimensions creates a scalar (one element, rank 0).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, slices.Clone(shape)))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// From wraps data in a tensor of the given shape. The data slice is used
// directly (not copied); its length must equal the shape volume.
func From(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d)", len(data), slices.Clone(shape), n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Scalar returns a rank-0 tensor holding v.
func Scalar(v float32) *Tensor {
	return &Tensor{shape: nil, data: []float32{v}}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Bytes returns the storage footprint in bytes (4 bytes per element).
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 4 }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Data returns the underlying buffer. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return &Tensor{shape: s, data: d}
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Volume returns the number of elements implied by shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// ShapeEq reports whether two shapes are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g %g ... %g] n=%d", t.data[0], t.data[1], t.data[2], t.data[len(t.data)-1], len(t.data))
	}
	return b.String()
}

// HasNaN reports whether any element is NaN or Inf.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
	}
	return false
}
