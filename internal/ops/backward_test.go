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
					op.SetGradMask(mask)
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
				op.SetGradMask(nil)
			}
		}
	}
}
