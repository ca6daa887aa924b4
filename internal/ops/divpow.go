package ops

import (
	"math"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// DivOp computes elementwise a / b.
type DivOp struct{ base }

// NewDiv returns an elementwise division operator.
func NewDiv() *DivOp { return &DivOp{base{name: "Div"}} }

func (o *DivOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	a, b, dst := inputs[0].Data(), inputs[1].Data(), out.Data()
	for i := range dst {
		dst[i] = a[i] / b[i]
	}
	return o.out1(out)
}

func (o *DivOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	a, b := fwdInputs[0], fwdInputs[1]
	g := gradOutputs[0]
	gradA := o.fullGrad(0, a.Shape()...)
	// d/db (a/b) = -a/b²
	gradB := o.fullGrad(1, b.Shape()...)
	for i := range gradB.Data() {
		bv := b.Data()[i]
		gradA.Data()[i] = g.Data()[i] / bv
		gradB.Data()[i] = -g.Data()[i] * a.Data()[i] / (bv * bv)
	}
	return o.grads(gradA, gradB)
}

func (o *DivOp) FLOPs(inputs []*tensor.Tensor) int64 { return elementwiseFLOPs(inputs) }

// PowOp computes elementwise a^b.
type PowOp struct{ base }

// NewPow returns an elementwise power operator.
func NewPow() *PowOp { return &PowOp{base{name: "Pow"}} }

func (o *PowOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	a, b := inputs[0], inputs[1]
	out := o.newOut(a.Shape()...)
	for i := range out.Data() {
		out.Data()[i] = float32(math.Pow(float64(a.Data()[i]), float64(b.Data()[i])))
	}
	return o.out1(out)
}

func (o *PowOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	a, b := fwdInputs[0], fwdInputs[1]
	y := fwdOutputs[0]
	g := gradOutputs[0]
	gradA := o.gradBuf(0, a.Shape()...)
	gradB := o.gradBuf(1, b.Shape()...)
	for i := range gradA.Data() {
		av, bv := float64(a.Data()[i]), float64(b.Data()[i])
		gradA.Data()[i] = g.Data()[i] * float32(bv*math.Pow(av, bv-1))
		if av > 0 {
			gradB.Data()[i] = g.Data()[i] * y.Data()[i] * float32(math.Log(av))
		}
	}
	return o.grads(gradA, gradB)
}

func (o *PowOp) FLOPs(inputs []*tensor.Tensor) int64 { return 10 * elementwiseFLOPs(inputs) }

func init() {
	Register("Div", func(n *graph.Node) (Operator, error) { return NewDiv(), nil })
	Register("Pow", func(n *graph.Node) (Operator, error) { return NewPow(), nil })
}
