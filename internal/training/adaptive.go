package training

import (
	"math"

	"deep500/internal/tensor"
)

// AdaGrad accumulates squared gradients per parameter: the reference
// update rule over FusedAdaGrad's state.
type AdaGrad struct{ FusedAdaGrad }

// NewAdaGrad returns an AdaGrad reference optimizer.
func NewAdaGrad(lr float32) *AdaGrad { return &AdaGrad{*NewFusedAdaGrad(lr)} }

// UpdateRule applies s += g²; w -= lr·g/(√s+ε).
func (o *AdaGrad) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor {
	s := slotFor(o.squares, name, oldParam)
	s.AddInPlace(tensor.Mul(grad, grad))
	out := oldParam.Clone()
	g, sd, od := grad.Data(), s.Data(), out.Data()
	for i := range od {
		od[i] -= o.LR * g[i] / (float32(math.Sqrt(float64(sd[i]))) + o.Eps)
	}
	return out
}

// RMSProp keeps an exponential moving average of squared gradients: the
// reference update rule over FusedRMSProp's state.
type RMSProp struct{ FusedRMSProp }

// NewRMSProp returns an RMSProp reference optimizer.
func NewRMSProp(lr, rho float32) *RMSProp { return &RMSProp{*NewFusedRMSProp(lr, rho)} }

// UpdateRule applies s ← ρs + (1-ρ)g²; w -= lr·g/√(s+ε).
func (o *RMSProp) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor {
	s := slotFor(o.squares, name, oldParam)
	g, sd := grad.Data(), s.Data()
	for i := range sd {
		sd[i] = o.Rho*sd[i] + (1-o.Rho)*g[i]*g[i]
	}
	out := oldParam.Clone()
	od := out.Data()
	for i := range od {
		od[i] -= o.LR * g[i] / float32(math.Sqrt(float64(sd[i]+o.Eps)))
	}
	return out
}

// AdamVariant selects between two common, *non-identical* Adam formulations
// whose trajectories slowly diverge — the effect the paper visualizes in
// Fig. 11 by comparing TensorFlow's Adam with the reference one.
type AdamVariant int

const (
	// AdamReference is the formulation of Kingma & Ba (Algorithm 1 of the
	// Adam paper): w -= lr · m̂ / (√v̂ + ε).
	AdamReference AdamVariant = iota
	// AdamEpsInside is the TensorFlow formulation: the bias correction is
	// folded into the step size and ε is applied *after* the square root of
	// the uncorrected v: w -= α_t · m / (√v + ε̂).
	AdamEpsInside
)

// Adam is the Adam reference optimizer with selectable formulation: the
// reference update rule over FusedAdam's state.
type Adam struct {
	FusedAdam
	Variant AdamVariant
}

// NewAdam returns Adam in the reference (paper) formulation.
func NewAdam(lr float32) *Adam { return &Adam{FusedAdam: *NewFusedAdam(lr)} }

// NewAdamVariant returns Adam in the chosen formulation.
func NewAdamVariant(lr float32, variant AdamVariant) *Adam {
	return &Adam{FusedAdam: *NewFusedAdam(lr), Variant: variant}
}

// UpdateRule applies the chosen Adam formulation.
func (o *Adam) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor {
	m, v := slotFor(o.m, name, oldParam), slotFor(o.v, name, oldParam)
	g, md, vd := grad.Data(), m.Data(), v.Data()
	for i := range md {
		md[i] = o.Beta1*md[i] + (1-o.Beta1)*g[i]
		vd[i] = o.Beta2*vd[i] + (1-o.Beta2)*g[i]*g[i]
	}
	t := max(o.t, 1)
	bc1 := 1 - float32(math.Pow(float64(o.Beta1), float64(t)))
	bc2 := 1 - float32(math.Pow(float64(o.Beta2), float64(t)))
	out := oldParam.Clone()
	od := out.Data()
	switch o.Variant {
	case AdamEpsInside:
		alpha := o.LR * float32(math.Sqrt(float64(bc2))) / bc1
		for i := range od {
			od[i] -= alpha * md[i] / (float32(math.Sqrt(float64(vd[i]))) + o.Eps)
		}
	default:
		for i := range od {
			mHat := md[i] / bc1
			vHat := vd[i] / bc2
			od[i] -= o.LR * mHat / (float32(math.Sqrt(float64(vHat))) + o.Eps)
		}
	}
	return out
}

// AcceleGrad implements the adaptive accelerated optimizer of Levy et al.
// (the paper's Listing 7), using the full three-step interface: it adjusts
// parameters before inference (the τ_t·z + (1-τ_t)·y interpolation) and
// keeps per-parameter y/z sequences.
type AcceleGrad struct {
	LR, D, G, Eps float32
	t             int
	alphaT, tauT  float32
	init          bool
	y, z          map[string]*tensor.Tensor
	squares       map[string]float64
}

// NewAcceleGrad returns an AcceleGrad optimizer. D bounds the domain
// diameter and G the gradient norm, as in the algorithm.
func NewAcceleGrad(lr, d, g float32) *AcceleGrad {
	return &AcceleGrad{LR: lr, D: d, G: g, Eps: 1e-8,
		y: make(map[string]*tensor.Tensor), z: make(map[string]*tensor.Tensor),
		squares: make(map[string]float64)}
}

// NewInput computes α_t and τ_t (Listing 7, new_input).
func (o *AcceleGrad) NewInput() {
	o.t++
	if o.t <= 3 {
		o.alphaT = 1
	} else {
		o.alphaT = float32(o.t) / 4
	}
	o.tauT = 1 / o.alphaT
}

// PrepareParam feeds the interpolated iterate τ_t·z + (1-τ_t)·y (Listing 7,
// prepare_param).
func (o *AcceleGrad) PrepareParam(name string, param *tensor.Tensor) *tensor.Tensor {
	if _, ok := o.y[name]; !ok {
		o.y[name] = param.Clone()
		o.z[name] = param.Clone()
		o.squares[name] = 0
	}
	y, z := o.y[name], o.z[name]
	out := tensor.New(param.Shape()...)
	od, yd, zd := out.Data(), y.Data(), z.Data()
	for i := range od {
		od[i] = o.tauT*zd[i] + (1-o.tauT)*yd[i]
	}
	return out
}

// UpdateRule applies the AcceleGrad update (Listing 7, update_rule).
func (o *AcceleGrad) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor {
	sq := o.squares[name]
	gnorm := grad.Norm2()
	sq += float64(o.alphaT) * float64(o.alphaT) * gnorm * gnorm
	etaT := 2 * float64(o.D) / math.Sqrt(float64(o.G)*float64(o.G)+sq)
	z, y := o.z[name], o.y[name]
	zd, yd, gd, od := z.Data(), y.Data(), grad.Data(), oldParam.Data()
	for i := range zd {
		zd[i] -= o.alphaT * float32(etaT) * gd[i]
		yd[i] = od[i] - float32(etaT)*gd[i]
	}
	o.squares[name] = sq
	adjusted := o.LR / (o.Eps + float32(math.Sqrt(sq)))
	out := oldParam.Clone()
	outD := out.Data()
	for i := range outD {
		outD[i] -= adjusted * gd[i]
	}
	o.init = true
	return out
}
