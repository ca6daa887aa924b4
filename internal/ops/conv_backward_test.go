package ops

import (
	"fmt"
	"math"
	"testing"

	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// oldConvBackward is Conv2DOp.Backward as it was before the operator lowered
// to kernels.Conv2DBackward: one serial loop over the batch, fresh
// workspaces, and every gradient computed. It stays here as the reference
// the kernel-backed operator is compared against.
func oldConvBackward(o *Conv2DOp, gradOutputs, fwdInputs []*tensor.Tensor) []*tensor.Tensor {
	x, w := fwdInputs[0], fwdInputs[1]
	g := gradOutputs[0]
	s := o.shape(x, w)
	oh, ow := s.OutDims()
	spatial := oh * ow
	ckk := s.C * s.KH * s.KW

	gradX := tensor.New(x.Shape()...)
	gradW := tensor.New(w.Shape()...)
	col := make([]float32, ckk*spatial)
	gradColBuf := make([]float32, ckk*spatial)
	gradWAcc := make([]float32, s.M*ckk)
	perImageGW := make([]float32, s.M*ckk)

	for n := 0; n < s.N; n++ {
		img := x.Data()[n*s.C*s.H*s.W:]
		gOut := g.Data()[n*s.M*spatial : (n+1)*s.M*spatial]
		im2col(s, img, col)
		kernels.GemmTransB(gOut, col, perImageGW, s.M, spatial, ckk)
		for i, v := range perImageGW {
			gradWAcc[i] += v
		}
		kernels.GemmTransA(w.Data(), gOut, gradColBuf, ckk, s.M, spatial)
		kernels.Col2Im(s, gradColBuf, gradX.Data()[n*s.C*s.H*s.W:])
	}
	copy(gradW.Data(), gradWAcc)

	grads := []*tensor.Tensor{gradX, gradW}
	if len(fwdInputs) > 2 && fwdInputs[2] != nil {
		gb := tensor.New(s.M)
		for n := 0; n < s.N; n++ {
			for m := 0; m < s.M; m++ {
				var sum float32
				for _, v := range g.Data()[(n*s.M+m)*spatial : (n*s.M+m+1)*spatial] {
					sum += v
				}
				gb.Data()[m] += sum
			}
		}
		grads = append(grads, gb)
	}
	return grads
}

// im2col lowers one C×H×W image into its (C·KH·KW)×(OH·OW) column matrix,
// one bounds test per element: the lowering the old loop above ran.
func im2col(s kernels.ConvShape, img, col []float32) {
	oh, ow := s.OutDims()
	idx := 0
	for c := 0; c < s.C; c++ {
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH - s.PadH + ky
					for ox := 0; ox < ow; ox++ {
						ix := ox*s.StrideW - s.PadW + kx
						col[idx] = 0
						if iy >= 0 && iy < s.H && ix >= 0 && ix < s.W {
							col[idx] = img[(c*s.H+iy)*s.W+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// convChunk mirrors the kernel's fixed backward chunk (kernels.convBwdChunk):
// the grid below straddles it.
const convChunk = 4

type convCase struct {
	n, c, stride, pad int
	bias              bool
}

func (c convCase) String() string {
	return fmt.Sprintf("N%d C%d s%d p%d bias=%v", c.n, c.c, c.stride, c.pad, c.bias)
}

func convCases() []convCase {
	var cases []convCase
	for _, n := range []int{1, 3, convChunk, convChunk + 1, 32} {
		for _, c := range []int{1, 6} {
			for _, stride := range []int{1, 2} {
				for pad := 0; pad <= 2; pad++ {
					for _, bias := range []bool{false, true} {
						cases = append(cases, convCase{n, c, stride, pad, bias})
					}
				}
			}
		}
	}
	return cases
}

func (c convCase) build(seed uint64) (*Conv2DOp, []*tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	inputs := []*tensor.Tensor{
		tensor.RandNormal(rng, 0, 1, c.n, c.c, 8, 7),
		tensor.RandNormal(rng, 0, 0.5, 4, c.c, 3, 3),
	}
	if c.bias {
		inputs = append(inputs, tensor.RandNormal(rng, 0, 0.5, 4))
	}
	return NewConv2D(kernels.ConvIm2Col, c.stride, c.stride, c.pad, c.pad), inputs
}

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
	op, inputs := convCase{n: 3, c: 1, stride: 1, bias: true}.build(5)
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

// withPool runs f with kernels.Default replaced by a pool of the given size.
func withPool(workers int, f func()) {
	saved := kernels.Default
	kernels.Default = kernels.NewPool(workers)
	defer func() { kernels.Default = saved }()
	f()
}

// TestConvBackwardMatchesOldLoop compares the kernel-backed Backward with
// the old serial loop on every case, with no mask (every gradient, as
// validation's test_gradient sees the operator) and with the data-feed mask
// (dX skipped, dW and dBias unchanged to the bit).
func TestConvBackwardMatchesOldLoop(t *testing.T) {
	for _, c := range convCases() {
		op, inputs := c.build(7)
		outs := op.Forward(inputs)
		g := []*tensor.Tensor{tensor.RandNormal(tensor.NewRNG(8), 0, 1, outs[0].Shape()...)}
		want := oldConvBackward(op, g, inputs)
		got := keep(op.Backward(g, inputs, outs))
		if len(got) != len(want) {
			t.Fatalf("%v: %d gradients, old loop returned %d", c, len(got), len(want))
		}
		for i := range want {
			// The batch sum of dW/dBias is regrouped by chunk: rounding-level
			// agreement past one chunk, exact agreement within one.
			tol := 1e-4
			if c.n <= convChunk || i == 0 {
				tol = 0
			}
			if !tensor.AllClose(got[i], want[i], tol, tol) {
				t.Errorf("%v: gradient %d differs from the old loop", c, i)
			}
		}

		op.SetGradMask([]bool{false, true, true})
		masked := op.Backward(g, inputs, outs)
		if masked[0] != nil {
			t.Errorf("%v: dX computed although the mask does not ask for it", c)
		}
		for i := 1; i < len(got); i++ {
			if !sameBits(masked[i], got[i]) {
				t.Errorf("%v: skipping dX changed gradient %d", c, i)
			}
		}
	}
}

func TestConvBackwardFiniteDifferences(t *testing.T) {
	for _, c := range convCases() {
		if c.n > convChunk+1 {
			continue
		}
		op, inputs := c.build(9)
		check := []bool{true, true, true}[:len(inputs)]
		checkGrad(t, op, inputs, check)
	}
}

// TestConvBackwardBitwiseAcrossPools runs the operator's Backward under 1-,
// 2- and 8-worker pools and 20 times over: every gradient must come out
// bit-identical (exact-resume checkpoints and the DSGD rank-equality check
// depend on it).
func TestConvBackwardBitwiseAcrossPools(t *testing.T) {
	for _, c := range convCases() {
		op, inputs := c.build(11)
		outs := op.Forward(inputs)
		g := []*tensor.Tensor{tensor.RandNormal(tensor.NewRNG(12), 0, 1, outs[0].Shape()...)}
		var want []*tensor.Tensor
		withPool(1, func() { want = keep(op.Backward(g, inputs, outs)) })
		check := func(label string) {
			for i, got := range op.Backward(g, inputs, outs) {
				if !sameBits(got, want[i]) {
					t.Errorf("%v: gradient %d under %s differs from the 1-worker result", c, i, label)
				}
			}
		}
		withPool(2, func() { check("a pool of 2") })
		withPool(8, func() {
			for r := 0; r < 20; r++ {
				check("a pool of 8")
			}
		})
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
