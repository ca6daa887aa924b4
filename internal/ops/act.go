package ops

import (
	"math"

	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// ReLUOp is the rectified linear unit.
type ReLUOp struct{ base }

// NewReLU returns a ReLU operator.
func NewReLU() *ReLUOp { return &ReLUOp{base{name: "Relu"}} }

func (o *ReLUOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	kernels.ReLU(inputs[0].Data(), out.Data())
	return o.out1(out)
}

func (o *ReLUOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	gradIn := o.fullGrad(0, fwdInputs[0].Shape()...)
	kernels.ReLUBackward(fwdInputs[0].Data(), gradOutputs[0].Data(), gradIn.Data())
	return o.grads(gradIn)
}

func (o *ReLUOp) FLOPs(inputs []*tensor.Tensor) int64 { return elementwiseFLOPs(inputs) }

// LeakyReLUOp is ReLU with a small negative slope alpha.
type LeakyReLUOp struct {
	base
	Alpha float32
}

// NewLeakyReLU returns a LeakyReLU operator with the given negative slope.
func NewLeakyReLU(alpha float32) *LeakyReLUOp { return &LeakyReLUOp{base{name: "LeakyRelu"}, alpha} }

func (o *LeakyReLUOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	dst := out.Data()
	for i, v := range inputs[0].Data() {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = o.Alpha * v
		}
	}
	return o.out1(out)
}

func (o *LeakyReLUOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	gradIn := o.fullGrad(0, fwdInputs[0].Shape()...)
	in := fwdInputs[0].Data()
	g := gradOutputs[0].Data()
	dst := gradIn.Data()
	for i, v := range in {
		if v > 0 {
			dst[i] = g[i]
		} else {
			dst[i] = o.Alpha * g[i]
		}
	}
	return o.grads(gradIn)
}

func (o *LeakyReLUOp) FLOPs(inputs []*tensor.Tensor) int64 { return elementwiseFLOPs(inputs) }

// SigmoidOp is the logistic activation.
type SigmoidOp struct{ base }

// NewSigmoid returns a sigmoid operator.
func NewSigmoid() *SigmoidOp { return &SigmoidOp{base{name: "Sigmoid"}} }

func (o *SigmoidOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	kernels.Sigmoid(inputs[0].Data(), out.Data())
	return o.out1(out)
}

func (o *SigmoidOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	gradIn := o.fullGrad(0, fwdInputs[0].Shape()...)
	kernels.SigmoidBackward(fwdOutputs[0].Data(), gradOutputs[0].Data(), gradIn.Data())
	return o.grads(gradIn)
}

func (o *SigmoidOp) FLOPs(inputs []*tensor.Tensor) int64 { return 4 * elementwiseFLOPs(inputs) }

// TanhOp is the hyperbolic-tangent activation.
type TanhOp struct{ base }

// NewTanh returns a tanh operator.
func NewTanh() *TanhOp { return &TanhOp{base{name: "Tanh"}} }

func (o *TanhOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	kernels.Tanh(inputs[0].Data(), out.Data())
	return o.out1(out)
}

func (o *TanhOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	gradIn := o.fullGrad(0, fwdInputs[0].Shape()...)
	kernels.TanhBackward(fwdOutputs[0].Data(), gradOutputs[0].Data(), gradIn.Data())
	return o.grads(gradIn)
}

func (o *TanhOp) FLOPs(inputs []*tensor.Tensor) int64 { return 4 * elementwiseFLOPs(inputs) }

// SoftmaxOp computes a row-wise softmax over the last dimension of a rank-2
// input.
type SoftmaxOp struct{ base }

// NewSoftmax returns a softmax operator.
func NewSoftmax() *SoftmaxOp { return &SoftmaxOp{base{name: "Softmax"}} }

func (o *SoftmaxOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	x := inputs[0]
	n, m := x.Dim(0), x.Dim(1)
	out := o.newOut(o.outShape(n, m)...)
	kernels.Softmax(x.Data(), out.Data(), n, m)
	return o.out1(out)
}

func (o *SoftmaxOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	// dx_i = y_i * (g_i - Σ_j g_j y_j) per row
	y := fwdOutputs[0]
	g := gradOutputs[0]
	n, m := y.Dim(0), y.Dim(1)
	gradIn := o.fullGrad(0, o.outShape(n, m)...)
	for r := 0; r < n; r++ {
		yr := y.Data()[r*m : (r+1)*m]
		gr := g.Data()[r*m : (r+1)*m]
		var dot float64
		for i := range yr {
			dot += float64(yr[i]) * float64(gr[i])
		}
		dst := gradIn.Data()[r*m : (r+1)*m]
		for i := range yr {
			dst[i] = yr[i] * (gr[i] - float32(dot))
		}
	}
	return o.grads(gradIn)
}

func (o *SoftmaxOp) FLOPs(inputs []*tensor.Tensor) int64 { return 5 * elementwiseFLOPs(inputs) }

// DropoutOp zeroes a random fraction of activations during training and
// scales the rest by 1/(1-ratio) ("inverted dropout"). At inference it is
// the identity.
type DropoutOp struct {
	base
	Ratio    float32
	Training bool
	rng      *tensor.RNG
	mask     []float32
}

// NewDropout returns a dropout operator with the given drop ratio, seeded
// deterministically.
func NewDropout(ratio float32, seed uint64) *DropoutOp {
	return &DropoutOp{base: base{name: "Dropout"}, Ratio: ratio, rng: tensor.NewRNG(seed)}
}

// SetTraining toggles training mode.
func (o *DropoutOp) SetTraining(training bool) { o.Training = training }

func (o *DropoutOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	x := inputs[0]
	if !o.Training || o.Ratio <= 0 {
		// Inference identity: copy through the allocator (never alias the
		// input — the memory planner assumes outputs are fresh buffers).
		out := o.newOut(x.Shape()...)
		copy(out.Data(), x.Data())
		return o.out1(out)
	}
	out := o.newOut(x.Shape()...)
	if cap(o.mask) < x.Size() {
		o.mask = make([]float32, x.Size())
	}
	o.mask = o.mask[:x.Size()]
	scale := 1 / (1 - o.Ratio)
	for i, v := range x.Data() {
		if o.rng.Float32() < o.Ratio {
			o.mask[i] = 0
		} else {
			o.mask[i] = scale
		}
		out.Data()[i] = v * o.mask[i]
	}
	return o.out1(out)
}

func (o *DropoutOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	gradIn := o.fullGrad(0, fwdInputs[0].Shape()...)
	g := gradOutputs[0].Data()
	if !o.Training || o.Ratio <= 0 {
		copy(gradIn.Data(), g)
		return o.grads(gradIn)
	}
	for i := range g {
		gradIn.Data()[i] = g[i] * o.mask[i]
	}
	return o.grads(gradIn)
}

func (o *DropoutOp) FLOPs(inputs []*tensor.Tensor) int64 { return elementwiseFLOPs(inputs) }

// unaryMathOp covers Exp, Log, Sqrt, Neg, Abs.
type unaryMathOp struct {
	base
	f  func(float32) float32
	df func(x, y, g float32) float32 // gradient given input x, output y, upstream g
}

func (o *unaryMathOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	dst := out.Data()
	for i, v := range inputs[0].Data() {
		dst[i] = o.f(v)
	}
	return o.out1(out)
}

func (o *unaryMathOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	x := fwdInputs[0].Data()
	y := fwdOutputs[0].Data()
	g := gradOutputs[0].Data()
	gradIn := o.fullGrad(0, fwdInputs[0].Shape()...)
	dst := gradIn.Data()
	for i := range x {
		dst[i] = o.df(x[i], y[i], g[i])
	}
	return o.grads(gradIn)
}

func (o *unaryMathOp) FLOPs(inputs []*tensor.Tensor) int64 { return 2 * elementwiseFLOPs(inputs) }

// NewExp, NewLog, NewSqrt, NewNeg and NewAbs construct elementwise math ops.
func NewExp() Operator {
	return &unaryMathOp{base{name: "Exp"},
		func(v float32) float32 { return float32(math.Exp(float64(v))) },
		func(x, y, g float32) float32 { return g * y }}
}

func NewLog() Operator {
	return &unaryMathOp{base{name: "Log"},
		func(v float32) float32 { return float32(math.Log(float64(v))) },
		func(x, y, g float32) float32 { return g / x }}
}

func NewSqrt() Operator {
	return &unaryMathOp{base{name: "Sqrt"},
		func(v float32) float32 { return float32(math.Sqrt(float64(v))) },
		func(x, y, g float32) float32 { return g / (2 * y) }}
}

func NewNeg() Operator {
	return &unaryMathOp{base{name: "Neg"},
		func(v float32) float32 { return -v },
		func(x, y, g float32) float32 { return -g }}
}

func NewAbs() Operator {
	return &unaryMathOp{base{name: "Abs"},
		func(v float32) float32 {
			if v < 0 {
				return -v
			}
			return v
		},
		func(x, y, g float32) float32 {
			if x < 0 {
				return -g
			}
			return g
		}}
}

func init() {
	Register("Relu", func(n *graph.Node) (Operator, error) { return NewReLU(), nil })
	Register("LeakyRelu", func(n *graph.Node) (Operator, error) {
		return NewLeakyReLU(float32(n.AttrFloat("alpha", 0.01))), nil
	})
	Register("Sigmoid", func(n *graph.Node) (Operator, error) { return NewSigmoid(), nil })
	Register("Tanh", func(n *graph.Node) (Operator, error) { return NewTanh(), nil })
	Register("Softmax", func(n *graph.Node) (Operator, error) { return NewSoftmax(), nil })
	Register("Dropout", func(n *graph.Node) (Operator, error) {
		seed := uint64(n.AttrInt("seed", 1))
		return NewDropout(float32(n.AttrFloat("ratio", 0.5)), seed), nil
	})
	Register("Exp", func(n *graph.Node) (Operator, error) { return NewExp(), nil })
	Register("Log", func(n *graph.Node) (Operator, error) { return NewLog(), nil })
	Register("Sqrt", func(n *graph.Node) (Operator, error) { return NewSqrt(), nil })
	Register("Neg", func(n *graph.Node) (Operator, error) { return NewNeg(), nil })
	Register("Abs", func(n *graph.Node) (Operator, error) { return NewAbs(), nil })
}
