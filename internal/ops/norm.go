package ops

import (
	"math"

	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// BatchNormOp implements batch normalization over NCHW (or NC) input.
// Inputs: X, scale (gamma), bias (beta), running mean, running variance.
// During training it normalizes with batch statistics and updates the
// running statistics in place; during inference it uses the running
// statistics. Gradients are returned for X, scale and bias.
type BatchNormOp struct {
	base
	Eps      float32
	Momentum float32
	Training bool
	// saved batch statistics from the last training Forward
	mean, variance []float32
}

// NewBatchNorm returns a batch-normalization operator.
func NewBatchNorm(eps, momentum float32) *BatchNormOp {
	return &BatchNormOp{base: base{name: "BatchNormalization"}, Eps: eps, Momentum: momentum}
}

// SetTraining toggles between batch statistics (training) and running
// statistics (inference).
func (o *BatchNormOp) SetTraining(training bool) { o.Training = training }

func dimsNCHW(x *tensor.Tensor) (n, c, hw int) {
	switch x.Rank() {
	case 2:
		return x.Dim(0), x.Dim(1), 1
	case 4:
		return x.Dim(0), x.Dim(1), x.Dim(2) * x.Dim(3)
	default:
		panic("ops: BatchNormalization requires rank-2 or rank-4 input")
	}
}

func (o *BatchNormOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	x, gamma, beta := inputs[0], inputs[1], inputs[2]
	runMean, runVar := inputs[3], inputs[4]
	n, c, hw := dimsNCHW(x)
	out := o.newOut(x.Shape()...)
	if o.Training {
		o.mean, o.variance = kernels.BatchNormForward(n, c, hw, x.Data(), gamma.Data(), beta.Data(),
			out.Data(), o.Eps, runMean.Data(), runVar.Data(), o.Momentum)
	} else {
		// inference: normalize with running statistics
		for ch := 0; ch < c; ch++ {
			inv := float32(1 / math.Sqrt(float64(runVar.Data()[ch])+float64(o.Eps)))
			g, b, mu := gamma.Data()[ch], beta.Data()[ch], runMean.Data()[ch]
			for i := 0; i < n; i++ {
				b0 := (i*c + ch) * hw
				for j := 0; j < hw; j++ {
					out.Data()[b0+j] = g*(x.Data()[b0+j]-mu)*inv + b
				}
			}
		}
	}
	return o.out1(out)
}

func (o *BatchNormOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	x, gamma := fwdInputs[0], fwdInputs[1]
	n, c, hw := dimsNCHW(x)
	gradX := o.gradBuf(0, x.Shape()...)
	gradGamma := o.gradBuf(1, gamma.Shape()...)
	gradBeta := o.gradBuf(2, gamma.Shape()...)
	mean, variance := o.mean, o.variance
	if mean == nil {
		// Backward without a training Forward (e.g. gradient checking in
		// inference mode): fall back to running statistics.
		mean = fwdInputs[3].Data()
		variance = fwdInputs[4].Data()
	}
	kernels.BatchNormBackward(n, c, hw, x.Data(), gradOutputs[0].Data(), gamma.Data(),
		mean, variance, o.Eps, gradX.Data(), gradGamma.Data(), gradBeta.Data())
	// no gradients for running statistics
	return o.grads(gradX, gradGamma, gradBeta, nil, nil)
}

func (o *BatchNormOp) FLOPs(inputs []*tensor.Tensor) int64 { return 8 * int64(inputs[0].Size()) }

func init() {
	Register("BatchNormalization", func(n *graph.Node) (Operator, error) {
		return NewBatchNorm(float32(n.AttrFloat("epsilon", 1e-5)), float32(n.AttrFloat("momentum", 0.1))), nil
	})
}
