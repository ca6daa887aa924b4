package kernels

import "math"

// This file holds "fused" kernels: single passes that combine several
// logical operations. The paper's Use Case 1 (§III-A) contrasts Caffe2's
// fused Adam GPU kernel against TensorFlow's composition of many small Eigen
// ops; the same contrast exists here between AdamFused and an update built
// from a sequence of elementwise tensor operations.
//
// Every product in the momentum, Nesterov and SGD loops is converted to
// float32 before it is added: gc fuses x*y - z into one rounding on arm64
// (FMSUBS, FMADDS) and not on amd64, and the conversion keeps both at two.

// AdamFused applies one Adam step in a single pass over the parameters:
//
//	m ← β1·m + (1-β1)·g
//	v ← β2·v + (1-β2)·g²
//	p ← p - lr·( m/(1-β1ᵗ) ) / ( sqrt(v/(1-β2ᵗ)) + eps )
//
// param, grad, m and v must all have the same length.
func AdamFused(param, grad, m, v []float32, lr, beta1, beta2, eps float32, t int) {
	bc1 := float32(1 - math.Pow(float64(beta1), float64(t)))
	bc2 := float32(1 - math.Pow(float64(beta2), float64(t)))
	for i, g := range grad {
		m[i] = beta1*m[i] + (1-beta1)*g
		v[i] = beta2*v[i] + (1-beta2)*g*g
		mHat := m[i] / bc1
		vHat := v[i] / bc2
		param[i] -= lr * mHat / (float32(math.Sqrt(float64(vHat))) + eps)
	}
}

// MomentumFused applies one SGD-with-momentum step in a single pass:
// vel ← μ·vel - lr·g; p ← p + vel. On AVX2 hosts the vector kernel
// (exact_amd64.s) makes the same roundings in the same operand order, so
// the bits are the loop's.
func MomentumFused(param, grad, vel []float32, lr, mu float32) {
	if useAVX2 && len(param) >= len(grad) && len(vel) >= len(grad) {
		momentumAVX2(param, grad, vel, lr, mu)
		return
	}
	for i, g := range grad {
		vel[i] = float32(mu*vel[i]) - float32(lr*g)
		param[i] += vel[i]
	}
}

// NesterovFused applies one Nesterov-momentum step in a single pass:
// vel ← μ·vel - lr·g; p ← p + μ·vel - lr·g (the lookahead form, summed in
// the order the composed reference sums it).
func NesterovFused(param, grad, vel []float32, lr, mu float32) {
	for i, g := range grad {
		vel[i] = float32(mu*vel[i]) - float32(lr*g)
		param[i] = (param[i] + float32(mu*vel[i])) - float32(lr*g)
	}
}

// SGDFused applies p ← p - lr·g in one pass, on AVX2 hosts with the vector
// kernel, which gives the loop's bits as MomentumFused's does.
func SGDFused(param, grad []float32, lr float32) {
	if useAVX2 && len(param) >= len(grad) {
		sgdAVX2(param, grad, lr)
		return
	}
	for i, g := range grad {
		param[i] -= float32(lr * g)
	}
}

// RMSPropFused applies one RMSProp step in a single pass:
// s ← ρ·s + (1-ρ)·g²; p ← p - lr·g/sqrt(s+eps).
func RMSPropFused(param, grad, s []float32, lr, rho, eps float32) {
	for i, g := range grad {
		s[i] = rho*s[i] + (1-rho)*g*g
		param[i] -= lr * g / float32(math.Sqrt(float64(s[i]+eps)))
	}
}

// AdaGradFused applies one AdaGrad step in a single pass:
// s ← s + g²; p ← p - lr·g/(sqrt(s)+eps).
func AdaGradFused(param, grad, s []float32, lr, eps float32) {
	for i, g := range grad {
		s[i] += g * g
		param[i] -= lr * g / (float32(math.Sqrt(float64(s[i]))) + eps)
	}
}
