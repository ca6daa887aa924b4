package ops

import (
	"fmt"

	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// Conv2DOp implements 2D convolution. Inputs: X [N,C,H,W], W [M,C,KH,KW],
// optional bias [M]. The Algo field selects the kernel implementation and is
// the knob the micro-batching ILP (Level 1) tunes per node.
type Conv2DOp struct {
	base
	StrideH, StrideW int
	PadH, PadW       int
	Algo             kernels.ConvAlgo
}

// NewConv2D returns a convolution operator.
func NewConv2D(algo kernels.ConvAlgo, strideH, strideW, padH, padW int) *Conv2DOp {
	return &Conv2DOp{base: base{name: "Conv"}, Algo: algo,
		StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW}
}

func (o *Conv2DOp) shape(x, w *tensor.Tensor) kernels.ConvShape {
	return kernels.ConvShape{
		N: x.Dim(0), C: x.Dim(1), H: x.Dim(2), W: x.Dim(3),
		M: w.Dim(0), KH: w.Dim(2), KW: w.Dim(3),
		StrideH: o.StrideH, StrideW: o.StrideW, PadH: o.PadH, PadW: o.PadW,
	}
}

func (o *Conv2DOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	x, w := inputs[0], inputs[1]
	if x.Dim(1) != w.Dim(1) {
		panic(fmt.Sprintf("ops: Conv channel mismatch %d vs %d", x.Dim(1), w.Dim(1)))
	}
	s := o.shape(x, w)
	algo := o.Algo
	if algo == kernels.ConvWinograd && !s.SupportsWinograd() {
		algo = kernels.ConvIm2Col
	}
	oh, ow := s.OutDims()
	out := o.newOut(o.outShape(s.N, s.M, oh, ow)...)
	var bias []float32
	if len(inputs) > 2 && inputs[2] != nil {
		bias = inputs[2].Data()
	}
	kernels.Conv2D(algo, s, x.Data(), w.Data(), bias, out.Data())
	return o.out1(out)
}

// Backward lowers to kernels.Conv2DBackward, computing only the gradients
// the installed mask asks for.
func (o *Conv2DOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	x, w := fwdInputs[0], fwdInputs[1]
	grads := o.grads(o.newGrad(0, x.Shape()...), o.newGrad(1, w.Shape()...))
	if len(fwdInputs) > 2 && fwdInputs[2] != nil {
		grads = o.grads(grads[0], grads[1], o.newGrad(2, o.outShape(w.Dim(0))...))
	}
	var d [3][]float32
	for i, t := range grads {
		if t != nil {
			d[i] = t.Data()
		}
	}
	kernels.Conv2DBackward(o.shape(x, w), x.Data(), w.Data(), gradOutputs[0].Data(), d[0], d[1], d[2])
	return grads
}

func (o *Conv2DOp) FLOPs(inputs []*tensor.Tensor) int64 {
	return o.shape(inputs[0], inputs[1]).FLOPs()
}

func init() {
	Register("Conv", func(n *graph.Node) (Operator, error) {
		sh, sw, err := attrPair(n, "strides", 1)
		if err != nil {
			return nil, err
		}
		ph, pw, err := attrPair(n, "pads", 0)
		if err != nil {
			return nil, err
		}
		algo := kernels.ConvIm2Col
		switch n.AttrString("algo", "im2col") {
		case "direct":
			algo = kernels.ConvDirect
		case "winograd":
			algo = kernels.ConvWinograd
		case "im2col":
			algo = kernels.ConvIm2Col
		default:
			return nil, fmt.Errorf("ops: unknown conv algo %q", n.AttrString("algo", ""))
		}
		return NewConv2D(algo, sh, sw, ph, pw), nil
	})
}
