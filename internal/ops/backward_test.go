package ops

import (
	"math"
	"testing"

	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// sameBits reports whether a and b hold the same bits. Comparing a tensor
// with itself says nothing, and Backward hands out the same tensors on every
// call (base.gradBuf), so that counts as a failure: keep a result with keep
// before calling Backward on the operator again.
func sameBits(a, b *tensor.Tensor) bool {
	if a == nil || b == nil || a.Size() != b.Size() {
		return a == b
	}
	if a == b {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// keep copies the gradients a Backward returned, so they outlive the
// operator's next Backward (which reuses the tensors).
func keep(grads []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(grads))
	for i, g := range grads {
		if g != nil {
			out[i] = g.Clone()
		}
	}
	return out
}

// TestBackwardReusesItsTensors pins what keep is for: the same operator's
// next Backward returns the same tensors, so sameBits rejects the pair.
func TestBackwardReusesItsTensors(t *testing.T) {
	rng := tensor.NewRNG(5)
	inputs := []*tensor.Tensor{
		tensor.RandNormal(rng, 0, 1, 3, 1, 8, 7),
		tensor.RandNormal(rng, 0, 0.5, 4, 1, 3, 3),
		tensor.RandNormal(rng, 0, 0.5, 4),
	}
	op := NewConv2D(kernels.ConvIm2Col, 1, 1, 0, 0)
	outs := op.Forward(inputs)
	g := []*tensor.Tensor{tensor.RandNormal(tensor.NewRNG(6), 0, 1, outs[0].Shape()...)}
	first := op.Backward(g, inputs, outs)
	kept := keep(first)
	second := op.Backward(g, inputs, outs)
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("gradient %d: a fresh tensor on the second Backward", i)
		}
		if sameBits(first[i], second[i]) {
			t.Errorf("gradient %d: sameBits accepted a tensor compared with itself", i)
		}
		if !sameBits(kept[i], second[i]) {
			t.Errorf("gradient %d: differs between two identical calls", i)
		}
	}
}

// TestGemmBackwardHonoursMask checks that Gemm and MatMul return nil for
// exactly the masked inputs and leave the other gradients bit-identical,
// under every transpose combination.
func TestGemmBackwardHonoursMask(t *testing.T) {
	type maskable interface {
		Operator
		GradMaskAware
	}
	const m, k, n = 5, 7, 3
	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			rng := tensor.NewRNG(31)
			aShape, bShape := []int{m, k}, []int{k, n}
			if transA {
				aShape = []int{k, m}
			}
			if transB {
				bShape = []int{n, k}
			}
			inputs := []*tensor.Tensor{
				tensor.RandNormal(rng, 0, 1, aShape...),
				tensor.RandNormal(rng, 0, 1, bShape...),
				tensor.RandNormal(rng, 0, 1, n),
			}
			opsUnderTest := []maskable{NewGemm(transA, transB)}
			if !transA && !transB {
				opsUnderTest = append(opsUnderTest, NewMatMul())
			}
			for _, op := range opsUnderTest {
				ins := inputs
				if op.Name() == "MatMul" {
					ins = inputs[:2]
				}
				outs := op.Forward(ins)
				g := []*tensor.Tensor{tensor.RandNormal(rng, 0, 1, outs[0].Shape()...)}
				full := keep(op.Backward(g, ins, outs))
				for _, mask := range [][]bool{{false, true, true}, {true, false, true}, {false, false, true}} {
					op.SetGradMask(mask, nil)
					got := op.Backward(g, ins, outs)
					for i := range full {
						if !mask[i] && i < 2 {
							if got[i] != nil {
								t.Errorf("%s tA=%v tB=%v mask %v: gradient %d computed", op.Name(), transA, transB, mask, i)
							}
						} else if !sameBits(got[i], full[i]) {
							t.Errorf("%s tA=%v tB=%v mask %v: gradient %d changed", op.Name(), transA, transB, mask, i)
						}
					}
				}
				op.SetGradMask(nil, nil)
			}
		}
	}
}

// TestParameterFreeBackwardReusesItsBuffers: every operator without
// parameter inputs hands out the same gradient tensors (and result slice)
// from one Backward to the next, allocates nothing once warm, never returns
// an upstream gradient tensor itself (the executor accumulates into
// gradients in place), and leaves nothing of the previous call behind: a
// second call with another upstream gradient is bitwise equal to a fresh
// operator's first.
func TestParameterFreeBackwardReusesItsBuffers(t *testing.T) {
	rng := tensor.NewRNG(17)
	x := func(shape ...int) *tensor.Tensor { return tensor.RandNormal(rng, 0, 1, shape...) }
	pos := func(shape ...int) *tensor.Tensor { return tensor.RandUniform(rng, 0.5, 2, shape...) }
	labels := tensor.From([]float32{0, 3, 1, 4}, 4)
	cases := []struct {
		name   string
		op     func() Operator
		inputs []*tensor.Tensor
	}{
		{"Relu", func() Operator { return NewReLU() }, []*tensor.Tensor{x(2, 3, 4)}},
		{"LeakyRelu", func() Operator { return NewLeakyReLU(0.1) }, []*tensor.Tensor{x(2, 3, 4)}},
		{"Sigmoid", func() Operator { return NewSigmoid() }, []*tensor.Tensor{x(2, 3, 4)}},
		{"Tanh", func() Operator { return NewTanh() }, []*tensor.Tensor{x(2, 3, 4)}},
		{"Softmax", func() Operator { return NewSoftmax() }, []*tensor.Tensor{x(3, 5)}},
		{"Dropout/train", func() Operator { d := NewDropout(0.5, 3); d.SetTraining(true); return d }, []*tensor.Tensor{x(2, 3, 4)}},
		{"Dropout/inference", func() Operator { return NewDropout(0.5, 3) }, []*tensor.Tensor{x(2, 3, 4)}},
		{"Exp", NewExp, []*tensor.Tensor{x(2, 3)}},
		{"Log", NewLog, []*tensor.Tensor{pos(2, 3)}},
		{"Sqrt", NewSqrt, []*tensor.Tensor{pos(2, 3)}},
		{"Neg", NewNeg, []*tensor.Tensor{x(2, 3)}},
		{"Abs", NewAbs, []*tensor.Tensor{x(2, 3)}},
		{"Elu", func() Operator { return NewElu(1) }, []*tensor.Tensor{x(2, 3, 4)}},
		{"Clip", func() Operator { return NewClip(-0.5, 0.5) }, []*tensor.Tensor{x(2, 3, 4)}},
		{"Add", func() Operator { return NewAdd() }, []*tensor.Tensor{x(2, 6), x(2, 6)}},
		{"Sub", func() Operator { return NewSub() }, []*tensor.Tensor{x(2, 6), x(2, 6)}},
		{"Mul", func() Operator { return NewMul() }, []*tensor.Tensor{x(2, 6), x(2, 6)}},
		{"Div", func() Operator { return NewDiv() }, []*tensor.Tensor{x(2, 6), pos(2, 6)}},
		{"Pow", func() Operator { return NewPow() }, []*tensor.Tensor{pos(2, 6), x(2, 6)}},
		{"Sum", func() Operator { return NewSum() }, []*tensor.Tensor{x(2, 6), x(2, 6), x(2, 6)}},
		{"Identity", func() Operator { return NewIdentity() }, []*tensor.Tensor{x(2, 6)}},
		{"Flatten", func() Operator { return NewFlatten(1) }, []*tensor.Tensor{x(2, 3, 2, 2)}},
		{"Reshape", func() Operator { return NewReshape([]int{-1, 6}) }, []*tensor.Tensor{x(2, 3, 2)}},
		{"Concat", func() Operator { return NewConcat(0) }, []*tensor.Tensor{x(1, 4), x(2, 4)}},
		{"Split", func() Operator { return NewSplit(0, []int{1, 2}) }, []*tensor.Tensor{x(3, 4)}},
		{"MaxPool", func() Operator { return NewMaxPool(2, 2, 2, 2, 0, 0) }, []*tensor.Tensor{x(2, 2, 4, 4)}},
		{"AveragePool", func() Operator { return NewAvgPool(2, 2, 2, 2, 0, 0) }, []*tensor.Tensor{x(2, 2, 4, 4)}},
		{"GlobalAveragePool", func() Operator { return NewGlobalAvgPool() }, []*tensor.Tensor{x(2, 3, 2, 2)}},
		{"SoftmaxCrossEntropy", func() Operator { return NewSoftmaxCrossEntropy() }, []*tensor.Tensor{x(4, 5), labels}},
		{"MeanSquaredError", func() Operator { return NewMSE() }, []*tensor.Tensor{x(2, 3), x(2, 3)}},
	}
	for _, tc := range cases {
		op, fresh := tc.op(), tc.op()
		outs := keep(op.Forward(tc.inputs))
		fresh.Forward(tc.inputs)
		upstream := func(seed uint64) []*tensor.Tensor {
			g := make([]*tensor.Tensor, len(outs))
			for i, o := range outs {
				g[i] = tensor.RandNormal(tensor.NewRNG(seed), 0, 1, o.Shape()...)
			}
			return g
		}
		g1, g2 := upstream(1), upstream(2)
		first := op.Backward(g1, tc.inputs, outs)
		firstTensors := append([]*tensor.Tensor(nil), first...)
		second := op.Backward(g2, tc.inputs, outs)
		want := fresh.Backward(g2, tc.inputs, outs)
		if &first[0] != &second[0] {
			t.Errorf("%s: a fresh result slice on the second Backward", tc.name)
		}
		for i, got := range second {
			if got == nil {
				continue
			}
			if got != firstTensors[i] {
				t.Errorf("%s: gradient %d is a fresh tensor on the second Backward", tc.name, i)
			}
			for _, g := range g2 {
				if got == g {
					t.Errorf("%s: gradient %d is the upstream gradient itself", tc.name, i)
				}
			}
			if !sameBits(got, want[i]) {
				t.Errorf("%s: gradient %d of the second Backward differs from a fresh operator's", tc.name, i)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { op.Backward(g2, tc.inputs, outs) }); allocs != 0 {
			t.Errorf("%s: a warm Backward allocates %v times", tc.name, allocs)
		}
	}
}
