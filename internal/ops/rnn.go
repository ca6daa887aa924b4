package ops

import (
	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// RNNTanhCell is one step of an Elman recurrent network:
//
//	h' = tanh(x·Wx + h·Wh + b)
//
// Inputs: x [N,I], h [N,H], Wx [I,H], Wh [H,H], b [H]. Output: h' [N,H].
// With this operator the repository covers all four DeepBench operator
// families (Conv, GEMM, RNN, Allreduce — Table II "Ops"). Sequence models
// unroll the cell across time steps in the graph.
type RNNTanhCell struct {
	base
}

// NewRNNTanhCell returns a tanh RNN cell.
func NewRNNTanhCell() *RNNTanhCell {
	return &RNNTanhCell{base: base{name: "RNNTanhCell"}}
}

func (o *RNNTanhCell) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	x, h, wx, wh, b := inputs[0], inputs[1], inputs[2], inputs[3], inputs[4]
	n, hdim := x.Dim(0), wx.Dim(1)
	pre := tensor.New(n, hdim)
	kernels.Gemm(x.Data(), wx.Data(), pre.Data(), n, x.Dim(1), hdim)
	hw := tensor.New(n, hdim)
	kernels.Gemm(h.Data(), wh.Data(), hw.Data(), n, h.Dim(1), hdim)
	pre.AddInPlace(hw)
	pre.BroadcastAddRow(b)
	out := o.newOut(o.outShape(n, hdim)...)
	kernels.Tanh(pre.Data(), out.Data())
	return o.out1(out)
}

func (o *RNNTanhCell) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	x, h, wx, wh := fwdInputs[0], fwdInputs[1], fwdInputs[2], fwdInputs[3]
	y := fwdOutputs[0]
	n, hdim := x.Dim(0), wx.Dim(1)
	idim := x.Dim(1)

	// dPre = (1 - y²)·gradOut
	dPre := o.gradBuf(5, n, hdim)
	kernels.TanhBackward(y.Data(), gradOutputs[0].Data(), dPre.Data())

	// dX = dPre · Wxᵀ ; dH = dPre · Whᵀ
	gradX := o.gradBuf(0, n, idim)
	kernels.GemmTransB(dPre.Data(), wx.Data(), gradX.Data(), n, hdim, idim)
	gradH := o.gradBuf(1, n, h.Dim(1))
	kernels.GemmTransB(dPre.Data(), wh.Data(), gradH.Data(), n, hdim, h.Dim(1))
	// dWx = Xᵀ · dPre ; dWh = Hᵀ · dPre
	gradWx := o.gradBuf(2, idim, hdim)
	kernels.GemmTransA(x.Data(), dPre.Data(), gradWx.Data(), idim, n, hdim)
	gradWh := o.gradBuf(3, h.Dim(1), hdim)
	kernels.GemmTransA(h.Data(), dPre.Data(), gradWh.Data(), h.Dim(1), n, hdim)
	gradB := o.gradBuf(4, hdim)
	tensor.SumAxis0Into(gradB, dPre)
	return o.grads(gradX, gradH, gradWx, gradWh, gradB)
}

func (o *RNNTanhCell) FLOPs(inputs []*tensor.Tensor) int64 {
	x, h, wx := inputs[0], inputs[1], inputs[2]
	n, hdim := x.Dim(0), wx.Dim(1)
	return kernels.GemmFLOPs(n, x.Dim(1), hdim) + kernels.GemmFLOPs(n, h.Dim(1), hdim) +
		6*int64(n*hdim)
}

func init() {
	Register("RNNTanhCell", func(n *graph.Node) (Operator, error) { return NewRNNTanhCell(), nil })
	graph.RegisterSchema(graph.OpSchema{
		Name: "RNNTanhCell", Domain: "deep500", MinInputs: 5, MaxInputs: 5, NumOutputs: 1,
		InferShapes: func(n *graph.Node, in [][]int) ([][]int, error) {
			x, wx := in[0], in[2]
			return [][]int{{x[0], wx[1]}}, nil
		}})
}
