package training

import "deep500/internal/tensor"

// Schedule maps a step index to a learning rate.
type Schedule func(step int) float32

// ConstantLR returns a constant learning-rate schedule.
func ConstantLR(lr float32) Schedule { return func(int) float32 { return lr } }

// GradientDescent is plain SGD with a learning-rate schedule — the paper's
// "Gradient Descent with learning rate schedule" reference optimizer. This
// is a deliberately *reference* (allocation-per-step, composed-from-tensor-
// ops) update rule over its fused twin's state (fused.go).
type GradientDescent struct{ FusedSGD }

// NewGradientDescent returns SGD with a constant learning rate.
func NewGradientDescent(lr float32) *GradientDescent {
	return &GradientDescent{*NewFusedSGD(lr)}
}

// UpdateRule returns w - lr·g.
func (o *GradientDescent) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor {
	lr := o.LR(o.step)
	return tensor.Sub(oldParam, tensor.Map(grad, func(g float32) float32 { return lr * g }))
}

// Momentum is SGD with (Polyak) momentum.
type Momentum struct{ FusedMomentum }

// NewMomentum returns momentum SGD.
func NewMomentum(lr, mu float32) *Momentum {
	return &Momentum{*NewFusedMomentum(lr, mu)}
}

// NewNesterov returns Nesterov-accelerated SGD.
func NewNesterov(lr, mu float32) *Momentum {
	return &Momentum{*NewFusedNesterov(lr, mu)}
}

// UpdateRule applies v ← μv - lr·g; w ← w + v (plus the Nesterov lookahead
// when enabled).
func (o *Momentum) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor {
	lr := o.LR(o.step)
	v := slotFor(o.vel, name, oldParam)
	v.Scale(o.Mu)
	v.Axpy(-lr, grad)
	if o.Nesterov {
		// w + μv - lr·g
		out := tensor.Add(oldParam, tensor.Map(v, func(x float32) float32 { return o.Mu * x }))
		out.Axpy(-lr, grad)
		return out
	}
	return tensor.Add(oldParam, v)
}
