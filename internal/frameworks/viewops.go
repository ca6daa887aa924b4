package frameworks

import (
	"deep500/internal/ops"
	"deep500/internal/tensor"
)

// ViewSplitOp splits along axis 0 by returning zero-copy views into the
// input buffer — PyTorch-style chunking. Because axis-0 slices of a
// row-major tensor are contiguous, the views are valid tensors.
type ViewSplitOp struct {
	Sizes []int
}

// Name returns "Split" (it is a drop-in replacement).
func (o *ViewSplitOp) Name() string { return "Split" }

// Forward returns views over the input's rows.
func (o *ViewSplitOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	x := inputs[0]
	rest := x.Shape()[1:]
	rowSize := 1
	for _, d := range rest {
		rowSize *= d
	}
	outs := make([]*tensor.Tensor, len(o.Sizes))
	off := 0
	for i, sz := range o.Sizes {
		shape := append([]int{sz}, rest...)
		outs[i] = tensor.From(x.Data()[off*rowSize:(off+sz)*rowSize], shape...)
		off += sz
	}
	return outs
}

// Backward assembles the input gradient from the chunk gradients.
func (o *ViewSplitOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	gradIn := tensor.New(fwdInputs[0].Shape()...)
	off := 0
	for _, g := range gradOutputs {
		copy(gradIn.Data()[off:], g.Data())
		off += g.Size()
	}
	return []*tensor.Tensor{gradIn}
}

// FLOPs is zero: views move no data.
func (o *ViewSplitOp) FLOPs(inputs []*tensor.Tensor) int64 { return 0 }

// CopyAmplified wraps an operator with one extra materializing copy of
// every output — the staging copies TensorFlow's Split/Concat incur in the
// paper's micro-batch experiment ("splitting and concatenating nodes in
// TensorFlow incur additional memory copies", §V-C).
type CopyAmplified struct {
	Inner interface {
		Name() string
		Forward([]*tensor.Tensor) []*tensor.Tensor
		Backward(g, i, o []*tensor.Tensor) []*tensor.Tensor
		FLOPs([]*tensor.Tensor) int64
	}
}

// Name returns the wrapped operator's name.
func (o *CopyAmplified) Name() string { return o.Inner.Name() }

// SetGradMask forwards the executor's requires-grad mask to the wrapped
// operator when it can use one. The gradient destinations are not: Backward
// returns copies, which the executor copies into place.
func (o *CopyAmplified) SetGradMask(need []bool, _ []*tensor.Tensor) {
	if ga, ok := o.Inner.(ops.GradMaskAware); ok {
		ga.SetGradMask(need, nil)
	}
}

// Forward runs the inner op and deep-copies every output.
func (o *CopyAmplified) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	outs := o.Inner.Forward(inputs)
	copies := make([]*tensor.Tensor, len(outs))
	for i, t := range outs {
		copies[i] = t.Clone()
	}
	return copies
}

// Backward runs the inner backward and deep-copies every gradient.
func (o *CopyAmplified) Backward(g, in, out []*tensor.Tensor) []*tensor.Tensor {
	grads := o.Inner.Backward(g, in, out)
	copies := make([]*tensor.Tensor, len(grads))
	for i, t := range grads {
		if t != nil {
			copies[i] = t.Clone()
		}
	}
	return copies
}

// FLOPs matches the inner operator.
func (o *CopyAmplified) FLOPs(inputs []*tensor.Tensor) int64 { return o.Inner.FLOPs(inputs) }
