package ops

import (
	"fmt"

	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// MaxPoolOp implements 2D max pooling. The argmax indices from the last
// Forward call are cached for Backward.
type MaxPoolOp struct {
	base
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	argmax           []int32
}

// NewMaxPool returns a max-pooling operator.
func NewMaxPool(kh, kw, strideH, strideW, padH, padW int) *MaxPoolOp {
	return &MaxPoolOp{base: base{name: "MaxPool"}, KH: kh, KW: kw,
		StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW}
}

func (o *MaxPoolOp) shape(x *tensor.Tensor) kernels.PoolShape {
	return kernels.PoolShape{N: x.Dim(0), C: x.Dim(1), H: x.Dim(2), W: x.Dim(3),
		KH: o.KH, KW: o.KW, StrideH: o.StrideH, StrideW: o.StrideW, PadH: o.PadH, PadW: o.PadW}
}

func (o *MaxPoolOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	s := o.shape(inputs[0])
	oh, ow := s.OutDims()
	out := o.newOut(o.outShape(s.N, s.C, oh, ow)...)
	if cap(o.argmax) < s.OutputSize() {
		o.argmax = make([]int32, s.OutputSize())
	}
	o.argmax = o.argmax[:s.OutputSize()]
	kernels.MaxPool2D(s, inputs[0].Data(), out.Data(), o.argmax)
	return o.out1(out)
}

func (o *MaxPoolOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	s := o.shape(fwdInputs[0])
	gradIn := o.fullGrad(0, fwdInputs[0].Shape()...)
	kernels.MaxPool2DBackward(s, gradOutputs[0].Data(), o.argmax, gradIn.Data())
	return o.grads(gradIn)
}

func (o *MaxPoolOp) FLOPs(inputs []*tensor.Tensor) int64 {
	s := o.shape(inputs[0])
	return int64(s.OutputSize()) * int64(o.KH*o.KW)
}

// AvgPoolOp implements 2D average pooling.
type AvgPoolOp struct {
	base
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
}

// NewAvgPool returns an average-pooling operator.
func NewAvgPool(kh, kw, strideH, strideW, padH, padW int) *AvgPoolOp {
	return &AvgPoolOp{base: base{name: "AveragePool"}, KH: kh, KW: kw,
		StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW}
}

func (o *AvgPoolOp) shape(x *tensor.Tensor) kernels.PoolShape {
	return kernels.PoolShape{N: x.Dim(0), C: x.Dim(1), H: x.Dim(2), W: x.Dim(3),
		KH: o.KH, KW: o.KW, StrideH: o.StrideH, StrideW: o.StrideW, PadH: o.PadH, PadW: o.PadW}
}

func (o *AvgPoolOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	s := o.shape(inputs[0])
	oh, ow := s.OutDims()
	out := o.newOut(o.outShape(s.N, s.C, oh, ow)...)
	kernels.AvgPool2D(s, inputs[0].Data(), out.Data())
	return o.out1(out)
}

func (o *AvgPoolOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	s := o.shape(fwdInputs[0])
	gradIn := o.fullGrad(0, fwdInputs[0].Shape()...)
	kernels.AvgPool2DBackward(s, gradOutputs[0].Data(), gradIn.Data())
	return o.grads(gradIn)
}

func (o *AvgPoolOp) FLOPs(inputs []*tensor.Tensor) int64 {
	s := o.shape(inputs[0])
	return int64(s.OutputSize()) * int64(o.KH*o.KW)
}

// GlobalAvgPoolOp reduces N×C×H×W to N×C×1×1.
type GlobalAvgPoolOp struct{ base }

// NewGlobalAvgPool returns a global average pooling operator.
func NewGlobalAvgPool() *GlobalAvgPoolOp { return &GlobalAvgPoolOp{base{name: "GlobalAveragePool"}} }

func (o *GlobalAvgPoolOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	x := inputs[0]
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := o.newOut(o.outShape(n, c, 1, 1)...)
	kernels.GlobalAvgPool(n, c, h, w, x.Data(), out.Data())
	return o.out1(out)
}

func (o *GlobalAvgPoolOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	x := fwdInputs[0]
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	gradIn := o.fullGrad(0, x.Shape()...)
	kernels.GlobalAvgPoolBackward(n, c, h, w, gradOutputs[0].Data(), gradIn.Data())
	return o.grads(gradIn)
}

func (o *GlobalAvgPoolOp) FLOPs(inputs []*tensor.Tensor) int64 { return int64(inputs[0].Size()) }

// attrPair reads the first two values of the integer list attribute name,
// which default to def, refusing a list with fewer than two.
func attrPair(n *graph.Node, name string, def int64) (int, int, error) {
	v := n.AttrInts(name, []int64{def, def})
	if len(v) < 2 {
		return 0, 0, fmt.Errorf("ops: %s node %q: %s needs two values, got %v", n.OpType, n.Name, name, v)
	}
	return int(v[0]), int(v[1]), nil
}

// poolAttrs reads a pooling node's window, strides and pads.
func poolAttrs(n *graph.Node) (kh, kw, sh, sw, ph, pw int, err error) {
	if kh, kw, err = attrPair(n, "kernel_shape", 2); err != nil {
		return
	}
	if sh, sw, err = attrPair(n, "strides", 1); err != nil {
		return
	}
	ph, pw, err = attrPair(n, "pads", 0)
	return
}

func init() {
	Register("MaxPool", func(n *graph.Node) (Operator, error) {
		kh, kw, sh, sw, ph, pw, err := poolAttrs(n)
		if err != nil {
			return nil, err
		}
		return NewMaxPool(kh, kw, sh, sw, ph, pw), nil
	})
	Register("AveragePool", func(n *graph.Node) (Operator, error) {
		kh, kw, sh, sw, ph, pw, err := poolAttrs(n)
		if err != nil {
			return nil, err
		}
		return NewAvgPool(kh, kw, sh, sw, ph, pw), nil
	})
	Register("GlobalAveragePool", func(n *graph.Node) (Operator, error) {
		return NewGlobalAvgPool(), nil
	})
}
