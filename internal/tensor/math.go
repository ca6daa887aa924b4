package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b elementwise (same shape required).
func Add(a, b *Tensor) *Tensor { return zipNew(a, b, func(x, y float32) float32 { return x + y }) }

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor { return zipNew(a, b, func(x, y float32) float32 { return x - y }) }

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor { return zipNew(a, b, func(x, y float32) float32 { return x * y }) }

func zipNew(a, b *Tensor, f func(x, y float32) float32) *Tensor {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = f(a.data[i], b.data[i])
	}
	return out
}

// AddInPlace computes t += x.
func (t *Tensor) AddInPlace(x *Tensor) *Tensor {
	if len(t.data) != len(x.data) {
		panic("tensor: AddInPlace size mismatch")
	}
	for i, v := range x.data {
		t.data[i] += v
	}
	return t
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// Axpy computes t += alpha*x (BLAS axpy) in place.
func (t *Tensor) Axpy(alpha float32, x *Tensor) *Tensor {
	if len(t.data) != len(x.data) {
		panic("tensor: Axpy size mismatch")
	}
	for i, v := range x.data {
		t.data[i] += alpha * v
	}
	return t
}

// Map returns a new tensor with f applied to every element.
func Map(t *Tensor, f func(float32) float32) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = f(v)
	}
	return out
}

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Dot returns the inner product of a and b (float64 accumulation).
func Dot(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic("tensor: Dot size mismatch")
	}
	var s float64
	for i := range a.data {
		s += float64(a.data[i]) * float64(b.data[i])
	}
	return s
}

// Norm2 returns the ℓ2 (Euclidean) norm of t.
func (t *Tensor) Norm2() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// SumAxis0Into reduces a rank-2 tensor [n, m] over its first axis into dst,
// which must hold m elements (in any shape) and is overwritten.
func SumAxis0Into(dst, t *Tensor) {
	if t.Rank() != 2 || dst.Size() != t.shape[1] {
		panic(fmt.Sprintf("tensor: SumAxis0Into of %v into %v", t.shape, dst.shape))
	}
	n, m := t.shape[0], t.shape[1]
	dst.Zero()
	for i := 0; i < n; i++ {
		row := t.data[i*m : (i+1)*m]
		for j, v := range row {
			dst.data[j] += v
		}
	}
}

// BroadcastAddRow adds a row vector [m] to every row of a rank-2 tensor
// [n, m] in place.
func (t *Tensor) BroadcastAddRow(row *Tensor) *Tensor {
	if t.Rank() != 2 || row.Size() != t.shape[1] {
		panic("tensor: BroadcastAddRow shape mismatch")
	}
	n, m := t.shape[0], t.shape[1]
	for i := 0; i < n; i++ {
		dst := t.data[i*m : (i+1)*m]
		for j := range dst {
			dst[j] += row.data[j]
		}
	}
	return t
}
