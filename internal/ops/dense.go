package ops

import (
	"fmt"

	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// GemmOp implements Y = A·B + bias. Inputs: A [n,k], B [k,m], optional
// bias [m]. TransB supports weights stored output-major.
type GemmOp struct {
	base
	TransA, TransB bool
}

// NewGemm returns a GEMM operator over the product kernel.
func NewGemm(transA, transB bool) *GemmOp {
	return &GemmOp{base: base{name: "Gemm"}, TransA: transA, TransB: transB}
}

func (o *GemmOp) dims(a, b *tensor.Tensor) (m, k, n int) {
	m, k = a.Dim(0), a.Dim(1)
	if o.TransA {
		m, k = k, m
	}
	if o.TransB {
		n = b.Dim(0)
	} else {
		n = b.Dim(1)
	}
	return
}

// innerDim returns the contraction length as stored in B, for the
// dimension check against A's k.
func (o *GemmOp) innerDim(b *tensor.Tensor) int {
	if o.TransB {
		return b.Dim(1)
	}
	return b.Dim(0)
}

func (o *GemmOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	a, b := inputs[0], inputs[1]
	m, k, n := o.dims(a, b)
	if kb := o.innerDim(b); kb != k {
		panic(fmt.Sprintf("ops: Gemm inner dimension mismatch %d vs %d", k, kb))
	}
	// GemmT folds both transposes into the kernel's packing (or reads a
	// transposed B in place when A has only a few rows) — no transposed
	// copies of A or B are ever materialized.
	out := o.newOut(o.outShape(m, n)...)
	kernels.GemmT(a.Data(), b.Data(), out.Data(), m, k, n, o.TransA, o.TransB)
	if len(inputs) > 2 && inputs[2] != nil {
		kernels.BiasAct(m, n, out.Data(), inputs[2].Data())
	}
	return o.out1(out)
}

func (o *GemmOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	g := gradOutputs[0] // [m, n]
	a, b := fwdInputs[0], fwdInputs[1]
	m, k, n := o.dims(a, b)

	// dA = g·op(B)ᵀ, stored transposed when TransA. Each case maps the
	// stored operand layouts straight onto GemmT's trans flags, so the
	// backward products fold their transposes exactly like Forward does.
	// A gradient the installed mask does not ask for is left nil and its
	// product is skipped.
	gradA := o.newGrad(0, a.Shape()...)
	switch {
	case gradA == nil:
	case !o.TransA:
		kernels.GemmT(g.Data(), b.Data(), gradA.Data(), m, n, k, false, !o.TransB)
	default:
		kernels.GemmT(b.Data(), g.Data(), gradA.Data(), k, n, m, o.TransB, true)
	}
	// dB = op(A)ᵀ·g, stored transposed when TransB.
	gradB := o.newGrad(1, b.Shape()...)
	switch {
	case gradB == nil:
	case !o.TransB:
		kernels.GemmT(a.Data(), g.Data(), gradB.Data(), k, m, n, !o.TransA, false)
	default:
		kernels.GemmT(g.Data(), a.Data(), gradB.Data(), n, m, k, true, o.TransA)
	}
	if len(fwdInputs) > 2 && fwdInputs[2] != nil {
		gb := o.fullGrad(2, fwdInputs[2].Shape()...)
		tensor.SumAxis0Into(gb, g)
		return o.grads(gradA, gradB, gb)
	}
	return o.grads(gradA, gradB)
}

func (o *GemmOp) FLOPs(inputs []*tensor.Tensor) int64 {
	m, k, n := o.dims(inputs[0], inputs[1])
	return kernels.GemmFLOPs(m, k, n)
}

// MatMulOp is Gemm without bias or transposes.
type MatMulOp struct{ *GemmOp }

// NewMatMul returns a plain matrix-multiplication operator.
func NewMatMul() *MatMulOp {
	g := NewGemm(false, false)
	g.base = base{name: "MatMul"}
	return &MatMulOp{g}
}

func init() {
	Register("Gemm", func(n *graph.Node) (Operator, error) {
		return NewGemm(n.AttrInt("transA", 0) == 1, n.AttrInt("transB", 0) == 1), nil
	})
	Register("MatMul", func(n *graph.Node) (Operator, error) {
		return NewMatMul(), nil
	})
}
