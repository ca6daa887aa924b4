package ops

import (
	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// Labels are carried as float tensors holding integer class ids; this keeps
// the single-dtype tensor model of the repository while matching the
// paper's extension of ONNX with loss operators (§IV-B).

// labelInts converts t's class ids into buf, grown as needed.
func labelInts(buf []int, t *tensor.Tensor) []int {
	buf = buf[:0]
	for _, v := range t.Data() {
		buf = append(buf, int(v))
	}
	return buf
}

// SoftmaxCrossEntropyOp fuses softmax and mean cross-entropy.
// Inputs: logits [N,M], labels [N]. Outputs: scalar loss, probabilities
// [N,M]. Backward returns the gradient w.r.t. logits (labels get nil).
type SoftmaxCrossEntropyOp struct {
	base
	labels []int // the last pass's class ids, reused
}

// NewSoftmaxCrossEntropy returns the fused loss operator.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropyOp {
	return &SoftmaxCrossEntropyOp{base: base{name: "SoftmaxCrossEntropy"}}
}

func (o *SoftmaxCrossEntropyOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	logits, labels := inputs[0], inputs[1]
	n, m := logits.Dim(0), logits.Dim(1)
	probs := tensor.New(n, m)
	kernels.Softmax(logits.Data(), probs.Data(), n, m)
	o.labels = labelInts(o.labels, labels)
	loss := kernels.CrossEntropyForward(probs.Data(), o.labels, n, m)
	return []*tensor.Tensor{tensor.Scalar(loss), probs}
}

func (o *SoftmaxCrossEntropyOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	logits, labels := fwdInputs[0], fwdInputs[1]
	probs := fwdOutputs[1]
	n, m := logits.Dim(0), logits.Dim(1)
	gradIn := o.fullGrad(0, o.outShape(n, m)...)
	o.labels = labelInts(o.labels, labels)
	kernels.SoftmaxCrossEntropyBackward(probs.Data(), o.labels, gradIn.Data(), n, m)
	// scale by upstream scalar gradient (usually 1)
	if g := gradOutputs[0]; g != nil && g.Size() == 1 && g.Data()[0] != 1 {
		gradIn.Scale(g.Data()[0])
	}
	return o.grads(gradIn, nil)
}

func (o *SoftmaxCrossEntropyOp) FLOPs(inputs []*tensor.Tensor) int64 {
	return 6 * int64(inputs[0].Size())
}

// MSEOp computes mean squared error. Inputs: predictions, targets (same
// shape). Output: scalar loss.
type MSEOp struct{ base }

// NewMSE returns a mean-squared-error loss operator.
func NewMSE() *MSEOp { return &MSEOp{base{name: "MeanSquaredError"}} }

func (o *MSEOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	p, t := inputs[0], inputs[1]
	var s float64
	for i, v := range p.Data() {
		d := float64(v) - float64(t.Data()[i])
		s += d * d
	}
	return []*tensor.Tensor{tensor.Scalar(float32(s / float64(p.Size())))}
}

func (o *MSEOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	p, t := fwdInputs[0], fwdInputs[1]
	scale := 2 / float32(p.Size())
	if g := gradOutputs[0]; g != nil && g.Size() == 1 {
		scale *= g.Data()[0]
	}
	gradP := o.fullGrad(0, p.Shape()...)
	gradT := o.fullGrad(1, t.Shape()...)
	for i, v := range p.Data() {
		d := scale * (v - t.Data()[i])
		gradP.Data()[i] = d
		gradT.Data()[i] = -d
	}
	return o.grads(gradP, gradT)
}

func (o *MSEOp) FLOPs(inputs []*tensor.Tensor) int64 { return 3 * int64(inputs[0].Size()) }

// AccuracyOp computes top-1 classification accuracy. Inputs: logits or
// probabilities [N,M], labels [N]. Output: scalar fraction correct.
// It has no gradient (metric only).
type AccuracyOp struct{ base }

// NewAccuracy returns a top-1 accuracy metric operator.
func NewAccuracy() *AccuracyOp { return &AccuracyOp{base{name: "Accuracy"}} }

func (o *AccuracyOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	logits, labels := inputs[0], inputs[1]
	n, m := logits.Dim(0), logits.Dim(1)
	correct := 0
	for r := 0; r < n; r++ {
		row := logits.Data()[r*m : (r+1)*m]
		best, bi := row[0], 0
		for i, v := range row {
			if v > best {
				best, bi = v, i
			}
		}
		if bi == int(labels.Data()[r]) {
			correct++
		}
	}
	return []*tensor.Tensor{tensor.Scalar(float32(correct) / float32(n))}
}

func (o *AccuracyOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	return o.grads(nil, nil)
}

func (o *AccuracyOp) FLOPs(inputs []*tensor.Tensor) int64 { return int64(inputs[0].Size()) }

func init() {
	Register("SoftmaxCrossEntropy", func(n *graph.Node) (Operator, error) { return NewSoftmaxCrossEntropy(), nil })
	Register("MeanSquaredError", func(n *graph.Node) (Operator, error) { return NewMSE(), nil })
	Register("Accuracy", func(n *graph.Node) (Operator, error) { return NewAccuracy(), nil })
}
