package training

import (
	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// The fused ("native") optimizers are the product: what d500.SGD, Momentum,
// Nesterov, AdaGrad, RMSProp and Adam return and what the job workers build.
// Each applies its update with one kernel pass over the live parameter
// tensor and returns that same tensor, which Driver.Train recognises as an
// in-place update — a step allocates nothing that scales with the parameter
// count. They are the Caffe2-style dedicated operator of the paper's Use
// Case 1. The reference optimizers in sgd.go and adaptive.go embed these
// types and override only UpdateRule with one that composes tensor
// operations and allocates fresh tensors; they remain only as what
// validation.TestOptimizer and the Fig. 9 reproduction compare them with
// (reference Adam ≈5× slower than the native fused one).
//
// A reference form's state, constructor defaults and CaptureState are its
// fused twin's, so a checkpoint written by either loads into the other.

// slotFor returns the per-parameter state tensor of name, creating it zeroed
// in the parameter's shape on first use.
func slotFor(slots map[string]*tensor.Tensor, name string, param *tensor.Tensor) *tensor.Tensor {
	s, ok := slots[name]
	if !ok {
		s = tensor.New(param.Shape()...)
		slots[name] = s
	}
	return s
}

// FusedSGD applies w ← w − lr·g in one pass.
type FusedSGD struct {
	LR   Schedule
	step int
}

// NewFusedSGD returns fused SGD with a constant learning rate.
func NewFusedSGD(lr float32) *FusedSGD { return &FusedSGD{LR: ConstantLR(lr)} }

// NewInput advances the schedule.
func (o *FusedSGD) NewInput() { o.step++ }

// PrepareParam is a no-op.
func (o *FusedSGD) PrepareParam(string, *tensor.Tensor) *tensor.Tensor { return nil }

// UpdateRule applies the step in place and returns oldParam.
func (o *FusedSGD) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor {
	kernels.SGDFused(oldParam.Data(), grad.Data(), o.LR(o.step))
	return oldParam
}

// FusedMomentum applies (Polyak or Nesterov) momentum SGD in one pass.
type FusedMomentum struct {
	LR       Schedule
	Mu       float32
	Nesterov bool
	step     int
	vel      map[string]*tensor.Tensor
}

// NewFusedMomentum returns fused momentum SGD.
func NewFusedMomentum(lr, mu float32) *FusedMomentum {
	return &FusedMomentum{LR: ConstantLR(lr), Mu: mu, vel: make(map[string]*tensor.Tensor)}
}

// NewFusedNesterov returns fused Nesterov-accelerated SGD.
func NewFusedNesterov(lr, mu float32) *FusedMomentum {
	m := NewFusedMomentum(lr, mu)
	m.Nesterov = true
	return m
}

// NewInput advances the schedule.
func (o *FusedMomentum) NewInput() { o.step++ }

// PrepareParam is a no-op.
func (o *FusedMomentum) PrepareParam(string, *tensor.Tensor) *tensor.Tensor { return nil }

// UpdateRule applies the step in place and returns oldParam.
func (o *FusedMomentum) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor {
	v := slotFor(o.vel, name, oldParam)
	if o.Nesterov {
		kernels.NesterovFused(oldParam.Data(), grad.Data(), v.Data(), o.LR(o.step), o.Mu)
	} else {
		kernels.MomentumFused(oldParam.Data(), grad.Data(), v.Data(), o.LR(o.step), o.Mu)
	}
	return oldParam
}

// FusedAdam applies Adam (the Kingma & Ba formulation, AdamReference) in
// one pass — the "Adam native" of Fig. 9/10.
type FusedAdam struct {
	LR, Beta1, Beta2, Eps float32
	t                     int
	m, v                  map[string]*tensor.Tensor
}

// NewFusedAdam returns fused Adam.
func NewFusedAdam(lr float32) *FusedAdam {
	return &FusedAdam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[string]*tensor.Tensor), v: make(map[string]*tensor.Tensor)}
}

// NewInput advances Adam's time step (bias correction uses t starting at 1).
func (o *FusedAdam) NewInput() { o.t++ }

// PrepareParam is a no-op.
func (o *FusedAdam) PrepareParam(string, *tensor.Tensor) *tensor.Tensor { return nil }

// UpdateRule applies the fused Adam kernel in place and returns oldParam.
func (o *FusedAdam) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor {
	m, v := slotFor(o.m, name, oldParam), slotFor(o.v, name, oldParam)
	kernels.AdamFused(oldParam.Data(), grad.Data(), m.Data(), v.Data(),
		o.LR, o.Beta1, o.Beta2, o.Eps, max(o.t, 1))
	return oldParam
}

// FusedRMSProp applies RMSProp in one pass.
type FusedRMSProp struct {
	LR, Rho, Eps float32
	squares      map[string]*tensor.Tensor
}

// NewFusedRMSProp returns fused RMSProp.
func NewFusedRMSProp(lr, rho float32) *FusedRMSProp {
	return &FusedRMSProp{LR: lr, Rho: rho, Eps: 1e-8, squares: make(map[string]*tensor.Tensor)}
}

// NewInput is a no-op.
func (o *FusedRMSProp) NewInput() {}

// PrepareParam is a no-op.
func (o *FusedRMSProp) PrepareParam(string, *tensor.Tensor) *tensor.Tensor { return nil }

// UpdateRule applies the step in place and returns oldParam.
func (o *FusedRMSProp) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor {
	s := slotFor(o.squares, name, oldParam)
	kernels.RMSPropFused(oldParam.Data(), grad.Data(), s.Data(), o.LR, o.Rho, o.Eps)
	return oldParam
}

// FusedAdaGrad applies AdaGrad in one pass.
type FusedAdaGrad struct {
	LR, Eps float32
	squares map[string]*tensor.Tensor
}

// NewFusedAdaGrad returns fused AdaGrad.
func NewFusedAdaGrad(lr float32) *FusedAdaGrad {
	return &FusedAdaGrad{LR: lr, Eps: 1e-8, squares: make(map[string]*tensor.Tensor)}
}

// NewInput is a no-op.
func (o *FusedAdaGrad) NewInput() {}

// PrepareParam is a no-op.
func (o *FusedAdaGrad) PrepareParam(string, *tensor.Tensor) *tensor.Tensor { return nil }

// UpdateRule applies the step in place and returns oldParam.
func (o *FusedAdaGrad) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor {
	s := slotFor(o.squares, name, oldParam)
	kernels.AdaGradFused(oldParam.Data(), grad.Data(), s.Data(), o.LR, o.Eps)
	return oldParam
}
