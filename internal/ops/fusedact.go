package ops

import (
	"fmt"
	"slices"

	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// This file implements the fused graph operators produced by the compile
// pipeline's fusion pass (internal/compile): single nodes standing in for a
// Dense→Bias→Activation or Conv→Bias→ReLU chain, the graph-level analogue
// of the fused optimizer kernels in internal/kernels (paper §III-A, Use
// Case 1: Caffe2's one fused Adam kernel vs TensorFlow's many small ops).
//
// Fused operators never appear in hand-built models; the fusion pass
// rewrites eligible chains into them. Their backward passes are
// composition-equal to the unfused chains: all three supported activations
// have derivatives expressible in the forward output, so the pre-activation
// tensor the fusion eliminated is never needed.

// FusedGemmActOp computes Y = act(A·B + bias) in one node dispatch. Inputs
// are exactly GemmOp's (A, B, optional bias); the activation is applied by
// the kernels.BiasAct epilogue in a single in-place sweep instead of the
// unfused graph's separate broadcast-add and activation passes (each a full
// memory sweep into a fresh tensor).
type FusedGemmActOp struct {
	base
	TransA, TransB bool
	Act            kernels.Act

	// gemm delegates the backward matrix products (identical math to the
	// unfused GemmOp, fed the pre-activation gradient).
	gemm *GemmOp
}

// NewFusedGemmAct returns a fused GEMM+bias+activation operator.
func NewFusedGemmAct(transA, transB bool, act kernels.Act) *FusedGemmActOp {
	return &FusedGemmActOp{
		base:   base{name: "FusedGemmAct"},
		TransA: transA, TransB: transB, Act: act,
		gemm: NewGemm(transA, transB),
	}
}

func (o *FusedGemmActOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	a, b := inputs[0], inputs[1]
	m, k, n := o.gemm.dims(a, b)
	if kb := o.gemm.innerDim(b); kb != k {
		panic(fmt.Sprintf("ops: FusedGemmAct inner dimension mismatch %d vs %d", k, kb))
	}
	out := o.newOut(o.outShape(m, n)...)
	kernels.GemmT(a.Data(), b.Data(), out.Data(), m, k, n, o.TransA, o.TransB)
	var bias []float32
	if len(inputs) > 2 && inputs[2] != nil {
		bias = inputs[2].Data()
	}
	kernels.BiasAct(m, n, out.Data(), bias, o.Act)
	return o.out1(out)
}

// SetGradMask forwards the mask to the backward delegate.
func (o *FusedGemmActOp) SetGradMask(need []bool) { o.gemm.SetGradMask(need) }

func (o *FusedGemmActOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	y, g := fwdOutputs[0], gradOutputs[0]
	gPre := o.gradBuf(0, y.Shape()...)
	kernels.ActGradFromOutput(o.Act, y.Data(), g.Data(), gPre.Data())
	return o.gemm.Backward([]*tensor.Tensor{gPre}, fwdInputs, nil)
}

// FLOPs matches the unfused chain exactly — the GEMM plus the standalone
// activation op's estimate over the m×n output (ReLU 1, Sigmoid/Tanh 4
// per element; the bias broadcast is uncounted there too) — so -opt never
// shifts reported FLOP totals for reasons unrelated to actual work.
func (o *FusedGemmActOp) FLOPs(inputs []*tensor.Tensor) int64 {
	m, _, n := o.gemm.dims(inputs[0], inputs[1])
	actFactor := int64(1) // ActReLU
	if o.Act == kernels.ActSigmoid || o.Act == kernels.ActTanh {
		actFactor = 4
	}
	return o.gemm.FLOPs(inputs) + actFactor*int64(m)*int64(n)
}

// FusedConvReluOp computes Y = relu(conv(X, W) + bias) in one node
// dispatch: the convolution kernel writes the output once, then a single
// kernels.BiasReLUFused (or ReLUInPlace) sweep applies bias and
// rectification in place — no intermediate activation tensor, no separate
// bias and ReLU dispatches.
type FusedConvReluOp struct {
	base
	conv *Conv2DOp
	// gPre is the reused pre-activation gradient buffer of Backward; the
	// convolution backward kernel only reads it.
	gPre []float32
}

// NewFusedConvRelu returns a fused convolution+bias+ReLU operator with the
// given convolution geometry.
func NewFusedConvRelu(algo kernels.ConvAlgo, strideH, strideW, padH, padW int) *FusedConvReluOp {
	return &FusedConvReluOp{
		base: base{name: "FusedConvRelu"},
		conv: NewConv2D(algo, strideH, strideW, padH, padW),
	}
}

// ConvOp exposes the embedded convolution (geometry and algorithm): the
// executor charges its im2col workspace to the memory model through it,
// and framework profiles retune its Algo exactly as they do for plain
// Conv nodes.
func (o *FusedConvReluOp) ConvOp() *Conv2DOp { return o.conv }

func (o *FusedConvReluOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	x, w := inputs[0], inputs[1]
	if x.Dim(1) != w.Dim(1) {
		panic(fmt.Sprintf("ops: FusedConvRelu channel mismatch %d vs %d", x.Dim(1), w.Dim(1)))
	}
	s := o.conv.shape(x, w)
	algo := o.conv.Algo
	if algo == kernels.ConvWinograd && !s.SupportsWinograd() {
		algo = kernels.ConvIm2Col
	}
	oh, ow := s.OutDims()
	out := o.newOut(o.outShape(s.N, s.M, oh, ow)...)
	kernels.Conv2D(algo, s, x.Data(), w.Data(), nil, out.Data())
	if len(inputs) > 2 && inputs[2] != nil {
		kernels.BiasReLUFused(s.N, s.M, oh*ow, out.Data(), inputs[2].Data())
	} else {
		kernels.ReLUInPlace(out.Data())
	}
	return o.out1(out)
}

// SetGradMask forwards the mask to the embedded convolution.
func (o *FusedConvReluOp) SetGradMask(need []bool) { o.conv.SetGradMask(need) }

func (o *FusedConvReluOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	y, g := fwdOutputs[0], gradOutputs[0]
	o.gPre = slices.Grow(o.gPre[:0], y.Size())[:y.Size()]
	kernels.ActGradFromOutput(kernels.ActReLU, y.Data(), g.Data(), o.gPre)
	return o.conv.backward(o.gPre, fwdInputs)
}

// FLOPs matches the unfused chain exactly: the convolution plus the
// standalone ReLU's one-op-per-element estimate over the N×M×OH×OW output.
func (o *FusedConvReluOp) FLOPs(inputs []*tensor.Tensor) int64 {
	s := o.conv.shape(inputs[0], inputs[1])
	return o.conv.FLOPs(inputs) + int64(s.OutputSize())
}

func init() {
	Register("FusedGemmAct", func(n *graph.Node) (Operator, error) {
		act, ok := kernels.ActByName(n.AttrString("act", ""))
		if !ok || act == kernels.ActNone {
			return nil, fmt.Errorf("ops: FusedGemmAct node %q has unsupported act %q", n.Name, n.AttrString("act", ""))
		}
		return NewFusedGemmAct(
			n.AttrInt("transA", 0) == 1, n.AttrInt("transB", 0) == 1, act), nil
	})
	Register("FusedConvRelu", func(n *graph.Node) (Operator, error) {
		strides := n.AttrInts("strides", []int64{1, 1})
		pads := n.AttrInts("pads", []int64{0, 0})
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
		return NewFusedConvRelu(algo, int(strides[0]), int(strides[1]), int(pads[0]), int(pads[1])), nil
	})
}
