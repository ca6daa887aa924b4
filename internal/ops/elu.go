package ops

import (
	"math"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// EluOp is the exponential linear unit: x for x>0, α(eˣ-1) otherwise.
type EluOp struct {
	base
	Alpha float32
}

// NewElu returns an ELU operator.
func NewElu(alpha float32) *EluOp { return &EluOp{base{name: "Elu"}, alpha} }

func (o *EluOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	dst := out.Data()
	for i, v := range inputs[0].Data() {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = o.Alpha * float32(math.Expm1(float64(v)))
		}
	}
	return o.out1(out)
}

func (o *EluOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	gradIn := o.fullGrad(0, fwdInputs[0].Shape()...)
	in := fwdInputs[0].Data()
	y := fwdOutputs[0].Data()
	g := gradOutputs[0].Data()
	dst := gradIn.Data()
	for i, v := range in {
		if v > 0 {
			dst[i] = g[i]
		} else {
			dst[i] = g[i] * (y[i] + o.Alpha) // d/dx α(eˣ-1) = αeˣ = y+α
		}
	}
	return o.grads(gradIn)
}

func (o *EluOp) FLOPs(inputs []*tensor.Tensor) int64 { return 3 * elementwiseFLOPs(inputs) }

// ClipOp clamps values into [Min, Max].
type ClipOp struct {
	base
	Min, Max float32
}

// NewClip returns a clip operator.
func NewClip(min, max float32) *ClipOp { return &ClipOp{base{name: "Clip"}, min, max} }

func (o *ClipOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	dst := out.Data()
	for i, v := range inputs[0].Data() {
		switch {
		case v < o.Min:
			dst[i] = o.Min
		case v > o.Max:
			dst[i] = o.Max
		default:
			dst[i] = v
		}
	}
	return o.out1(out)
}

func (o *ClipOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	gradIn := o.gradBuf(0, fwdInputs[0].Shape()...)
	in := fwdInputs[0].Data()
	g := gradOutputs[0].Data()
	dst := gradIn.Data()
	for i, v := range in {
		if v > o.Min && v < o.Max {
			dst[i] = g[i]
		}
	}
	return o.grads(gradIn)
}

func (o *ClipOp) FLOPs(inputs []*tensor.Tensor) int64 { return elementwiseFLOPs(inputs) }

func init() {
	Register("Elu", func(n *graph.Node) (Operator, error) {
		return NewElu(float32(n.AttrFloat("alpha", 1.0))), nil
	})
	Register("Clip", func(n *graph.Node) (Operator, error) {
		return NewClip(float32(n.AttrFloat("min", -3.4e38)), float32(n.AttrFloat("max", 3.4e38))), nil
	})
}
