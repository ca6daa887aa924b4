package kernels

import "math"

// This file holds "fused" kernels: single passes that combine several
// logical operations. The paper's Use Case 1 (§III-A) contrasts Caffe2's
// fused Adam GPU kernel against TensorFlow's composition of many small Eigen
// ops; the same contrast exists here between AdamFused and an update built
// from a sequence of elementwise tensor operations.

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
// vel ← μ·vel - lr·g; p ← p + vel.
func MomentumFused(param, grad, vel []float32, lr, mu float32) {
	for i, g := range grad {
		vel[i] = mu*vel[i] - lr*g
		param[i] += vel[i]
	}
}

// NesterovFused applies one Nesterov-momentum step in a single pass:
// vel ← μ·vel - lr·g; p ← p + μ·vel - lr·g (the lookahead form, summed in
// the order the composed reference sums it).
func NesterovFused(param, grad, vel []float32, lr, mu float32) {
	for i, g := range grad {
		vel[i] = mu*vel[i] - lr*g
		param[i] = (param[i] + mu*vel[i]) - lr*g
	}
}

// SGDFused applies p ← p - lr·g in one pass.
func SGDFused(param, grad []float32, lr float32) {
	for i, g := range grad {
		param[i] -= lr * g
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

// BiasReLUFused adds a per-channel bias to an N×C×HW activation and applies
// ReLU in one pass (a typical operator-fusion example). It is the epilogue
// kernel of the FusedConvRelu graph operator produced by the compile
// pipeline's fusion pass (internal/compile).
func BiasReLUFused(n, c, hw int, inout, bias []float32) {
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			b := bias[ch]
			dst := inout[(i*c+ch)*hw : (i*c+ch+1)*hw]
			for j, v := range dst {
				v += b
				if v < 0 {
					v = 0
				}
				dst[j] = v
			}
		}
	}
}

// ReLUInPlace rectifies a buffer in place: the bias-less epilogue of a fused
// Conv→ReLU node.
func ReLUInPlace(inout []float32) {
	for i, v := range inout {
		if v < 0 {
			inout[i] = 0
		}
	}
}

// Act selects the activation applied by a fused epilogue kernel.
type Act uint8

const (
	// ActNone applies no activation (bias-only epilogue).
	ActNone Act = iota
	// ActReLU is max(0, x).
	ActReLU
	// ActSigmoid is 1/(1+e^-x).
	ActSigmoid
	// ActTanh is the hyperbolic tangent.
	ActTanh
)

// String returns the graph op-type name of the activation ("Relu",
// "Sigmoid", "Tanh", "" for none) — the value the fusion pass stores in the
// fused node's "act" attribute.
func (a Act) String() string {
	switch a {
	case ActReLU:
		return "Relu"
	case ActSigmoid:
		return "Sigmoid"
	case ActTanh:
		return "Tanh"
	}
	return ""
}

// ActByName resolves an activation op-type name to its Act constant; ok is
// false for op types no fused kernel implements.
func ActByName(name string) (Act, bool) {
	switch name {
	case "":
		return ActNone, true
	case "Relu":
		return ActReLU, true
	case "Sigmoid":
		return ActSigmoid, true
	case "Tanh":
		return ActTanh, true
	}
	return ActNone, false
}

// BiasAct is the epilogue of a fused Dense→Bias→Activation node: one pass
// over a rows×cols row-major matrix adding a per-column bias (nil skips it)
// and applying the activation. Compared to the unfused graph this replaces
// two full memory sweeps (broadcast bias add, then activation into a fresh
// buffer) and one intermediate activation tensor with a single in-place
// sweep. The activation and bias-presence dispatch happen once per call;
// the inner loops are specialized per activation (same style as
// ActGradFromOutput), keeping the ReLU hot path a single compare.
func BiasAct(rows, cols int, inout, bias []float32, act Act) {
	if bias == nil {
		switch act {
		case ActReLU:
			ReLUInPlace(inout[:rows*cols])
		case ActSigmoid:
			for i, v := range inout[:rows*cols] {
				inout[i] = 1 / (1 + float32(math.Exp(float64(-v))))
			}
		case ActTanh:
			for i, v := range inout[:rows*cols] {
				inout[i] = float32(math.Tanh(float64(v)))
			}
		}
		return
	}
	switch act {
	case ActReLU:
		for r := 0; r < rows; r++ {
			row := inout[r*cols : (r+1)*cols]
			for j, v := range row {
				v += bias[j]
				if v < 0 {
					v = 0
				}
				row[j] = v
			}
		}
	case ActSigmoid:
		for r := 0; r < rows; r++ {
			row := inout[r*cols : (r+1)*cols]
			for j, v := range row {
				row[j] = 1 / (1 + float32(math.Exp(float64(-(v + bias[j])))))
			}
		}
	case ActTanh:
		for r := 0; r < rows; r++ {
			row := inout[r*cols : (r+1)*cols]
			for j, v := range row {
				row[j] = float32(math.Tanh(float64(v + bias[j])))
			}
		}
	default:
		for r := 0; r < rows; r++ {
			row := inout[r*cols : (r+1)*cols]
			for j := range row {
				row[j] += bias[j]
			}
		}
	}
}

// ActGradFromOutput computes the gradient w.r.t. the pre-activation value of
// a fused node in one pass, using only the forward *output* y = act(pre):
//
//	ReLU:    d = g · 1[y>0]        (y > 0 ⟺ pre > 0)
//	Sigmoid: d = g · y·(1-y)
//	Tanh:    d = g · (1-y²)
//	None:    d = g
//
// All three supported activations have derivatives expressible in the
// output, so fused nodes never need to materialize the pre-activation
// tensor the fusion eliminated.
func ActGradFromOutput(act Act, y, gradOut, gradPre []float32) {
	switch act {
	case ActReLU:
		ReLUBackward(y, gradOut, gradPre)
	case ActSigmoid:
		for i, v := range y {
			gradPre[i] = gradOut[i] * v * (1 - v)
		}
	case ActTanh:
		for i, v := range y {
			gradPre[i] = gradOut[i] * (1 - v*v)
		}
	default:
		copy(gradPre, gradOut)
	}
}
