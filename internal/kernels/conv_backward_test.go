package kernels

import (
	"fmt"
	"math"
	"testing"

	"deep500/internal/tensor"
)

// im2col and refCol2Im are the per-element forms of the lowering and of
// Col2Im, a bounds test on every element: the column matrix the panel
// writers and the column-matrix convolution (conv_lowering_test.go) are
// checked against, and the reference for Col2Im's span form.
func im2col(s ConvShape, img, col []float32) {
	oh, ow := s.OutDims()
	idx := 0
	for c := 0; c < s.C; c++ {
		inC := img[c*s.H*s.W:]
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH - s.PadH + ky
					for ox := 0; ox < ow; ox++ {
						ix := ox*s.StrideW - s.PadW + kx
						if iy < 0 || iy >= s.H || ix < 0 || ix >= s.W {
							col[idx] = 0
						} else {
							col[idx] = inC[iy*s.W+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

func refCol2Im(s ConvShape, col, img []float32) {
	oh, ow := s.OutDims()
	for i := range img[:s.C*s.H*s.W] {
		img[i] = 0
	}
	idx := 0
	for c := 0; c < s.C; c++ {
		imC := img[c*s.H*s.W:]
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH - s.PadH + ky
					for ox := 0; ox < ow; ox++ {
						ix := ox*s.StrideW - s.PadW + kx
						if iy >= 0 && iy < s.H && ix >= 0 && ix < s.W {
							imC[iy*s.W+ix] += col[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// convBackwardShapes is the differential-test grid: batch sizes around the
// chunk boundary, one and several input channels, stride 1 and 2, pad 0–2,
// plus the two LeNet shapes, a non-square kernel and two degenerate
// geometries (a kernel column that never meets the image; stride 3).
func convBackwardShapes() []ConvShape {
	var shapes []ConvShape
	for _, n := range []int{1, 3, convBwdChunk, convBwdChunk + 1, 32} {
		for _, c := range []int{1, 6} {
			for _, stride := range []int{1, 2} {
				for pad := 0; pad <= 2; pad++ {
					shapes = append(shapes, ConvShape{N: n, C: c, H: 9, W: 8, M: 5, KH: 3, KW: 3,
						StrideH: stride, StrideW: stride, PadH: pad, PadW: pad})
				}
			}
		}
	}
	return append(shapes,
		ConvShape{N: 32, C: 1, H: 28, W: 28, M: 6, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
		ConvShape{N: 32, C: 6, H: 14, W: 14, M: 16, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
		ConvShape{N: 5, C: 2, H: 7, W: 10, M: 3, KH: 2, KW: 4, StrideH: 2, StrideW: 1, PadH: 1, PadW: 0},
		ConvShape{N: 2, C: 1, H: 3, W: 1, M: 2, KH: 3, KW: 5, StrideH: 1, StrideW: 1, PadH: 1, PadW: 2},
		ConvShape{N: 2, C: 3, H: 11, W: 11, M: 2, KH: 3, KW: 3, StrideH: 3, StrideW: 3, PadH: 1, PadW: 1},
	)
}

func convBackwardOperands(s ConvShape, seed uint64) (x, w, gOut []float32) {
	x = seeded(seed, s.InputSize())
	w = seeded(seed+1, s.WeightSize())
	gOut = seeded(seed+2, s.OutputSize())
	return
}

func seeded(seed uint64, n int) []float32 { return randSlice(tensor.NewRNG(seed), n) }

// withPool runs f with kernels.Default replaced by a pool of the given
// size (go test -cpu does not resize Default).
func withPool(workers int, f func()) {
	saved := Default
	Default = NewPool(workers)
	defer func() { Default = saved }()
	f()
}

// TestCol2ImSpanMatchesPerElement: Col2Im's span form overwrites the whole
// image with what the per-element scatter gives, bit for bit.
func TestCol2ImSpanMatchesPerElement(t *testing.T) {
	for _, s := range convBackwardShapes() {
		oh, ow := s.OutDims()
		src := seeded(14, s.C*s.KH*s.KW*oh*ow)
		// Poison the destinations: both forms must overwrite everything.
		back, refBack := seeded(15, s.C*s.H*s.W), seeded(16, s.C*s.H*s.W)
		Col2Im(s, src, back)
		refCol2Im(s, src, refBack)
		requireSameBits(t, fmt.Sprintf("%v: Col2Im", s), back, refBack)
	}
}

// TestConv2DBackwardFiniteDifferences checks every gradient against central
// differences of L = Σ gOut ⊙ (conv(x, w) + bias), accumulated in float64
// over the direct convolution. L is linear in each operand, so the
// difference quotient is exact up to rounding.
func TestConv2DBackwardFiniteDifferences(t *testing.T) {
	for _, s := range convBackwardShapes() {
		if s.N > convBwdChunk+1 {
			continue // the chunk boundary is covered; keep the probe cheap
		}
		x, w, gOut := convBackwardOperands(s, 31)
		bias := seeded(34, s.M)
		dX, dW, dB := make([]float32, len(x)), make([]float32, len(w)), make([]float32, s.M)
		Conv2DBackward(s, x, w, gOut, dX, dW, dB)
		out := make([]float32, s.OutputSize())
		loss := func() float64 {
			Conv2D(ConvDirect, s, x, w, bias, out)
			var l float64
			for i, v := range out {
				l += float64(v) * float64(gOut[i])
			}
			return l
		}
		const h = 0.25
		probe := func(name string, operand, grad []float32) {
			step := len(operand)/5 + 1
			for i := 0; i < len(operand); i += step {
				orig := operand[i]
				operand[i] = orig + h
				lp := loss()
				operand[i] = orig - h
				lm := loss()
				operand[i] = orig
				num := (lp - lm) / (2 * h)
				if d := math.Abs(num - float64(grad[i])); d > 1e-3*math.Max(1, math.Abs(num)) {
					t.Errorf("%v: %s[%d] analytic %g numeric %g", s, name, i, grad[i], num)
				}
			}
		}
		probe("dX", x, dX)
		probe("dW", w, dW)
		probe("dBias", bias, dB)
	}
}

// TestConv2DBackwardBitwiseAcrossPoolsAndRepeats pins the determinism the
// chunk-ordered reduction exists for: the same bits from a 1-, 2- and
// 8-worker pool, and from 20 runs on the widest one.
func TestConv2DBackwardBitwiseAcrossPoolsAndRepeats(t *testing.T) {
	for _, s := range convBackwardShapes() {
		x, w, gOut := convBackwardOperands(s, 41)
		run := func() (dX, dW, dB []float32) {
			dX, dW, dB = make([]float32, len(x)), make([]float32, len(w)), make([]float32, s.M)
			Conv2DBackward(s, x, w, gOut, dX, dW, dB)
			return
		}
		var wantX, wantW, wantB []float32
		withPool(1, func() { wantX, wantW, wantB = run() })
		check := func(label string) {
			dX, dW, dB := run()
			requireSameBits(t, fmt.Sprintf("%v: dX under %s", s, label), dX, wantX)
			requireSameBits(t, fmt.Sprintf("%v: dW under %s", s, label), dW, wantW)
			requireSameBits(t, fmt.Sprintf("%v: dBias under %s", s, label), dB, wantB)
		}
		withPool(2, func() { check("pool of 2") })
		withPool(8, func() {
			for r := 0; r < 20; r++ {
				check(fmt.Sprintf("pool of 8, repeat %d", r))
			}
		})
	}
}

func TestConv2DBackwardEmptyBatch(t *testing.T) {
	s := ConvShape{N: 0, C: 2, H: 5, W: 5, M: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	dW, dB := seeded(1, s.WeightSize()), seeded(2, s.M)
	Conv2DBackward(s, nil, seeded(3, s.WeightSize()), nil, nil, dW, dB)
	for _, v := range append(dW, dB...) {
		if v != 0 {
			t.Fatal("empty batch must leave zero gradients")
		}
	}
}
