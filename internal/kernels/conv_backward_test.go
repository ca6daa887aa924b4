package kernels

import (
	"fmt"
	"math"
	"testing"

	"deep500/internal/tensor"
)

// refIm2Col and refCol2Im are the per-element forms Im2Col and Col2Im had
// before the span rewrite: a bounds test on every element.
func refIm2Col(s ConvShape, img, col []float32) {
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

// refConv2DBackward is the serial per-image loop that was the body of
// ops.Conv2DOp.Backward before Conv2DBackward replaced it, over the
// per-element im2col/col2im forms. It always computes all three gradients.
func refConv2DBackward(s ConvShape, x, w, gOut []float32) (dX, dW, dBias []float32) {
	oh, ow := s.OutDims()
	spatial := oh * ow
	ckk := s.C * s.KH * s.KW
	dX = make([]float32, s.InputSize())
	dW = make([]float32, s.WeightSize())
	dBias = make([]float32, s.M)
	col := make([]float32, ckk*spatial)
	dcol := make([]float32, ckk*spatial)
	imgW := make([]float32, s.M*ckk)
	for n := 0; n < s.N; n++ {
		g := gOut[n*s.M*spatial : (n+1)*s.M*spatial]
		refIm2Col(s, x[n*s.C*s.H*s.W:], col)
		GemmTransB(g, col, imgW, s.M, spatial, ckk)
		for i, v := range imgW {
			dW[i] += v
		}
		GemmTransA(w, g, dcol, ckk, s.M, spatial)
		refCol2Im(s, dcol, dX[n*s.C*s.H*s.W:])
		for m := 0; m < s.M; m++ {
			var sum float32
			for _, v := range g[m*spatial : (m+1)*spatial] {
				sum += v
			}
			dBias[m] += sum
		}
	}
	return dX, dW, dBias
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

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// withPool runs f with kernels.Default replaced by a pool of the given
// size (go test -cpu does not resize Default).
func withPool(workers int, f func()) {
	saved := Default
	Default = NewPool(workers)
	defer func() { Default = saved }()
	f()
}

func TestIm2ColCol2ImSpanMatchesPerElement(t *testing.T) {
	for _, s := range convBackwardShapes() {
		oh, ow := s.OutDims()
		n := s.C * s.KH * s.KW * oh * ow
		img := seeded(11, s.C*s.H*s.W)
		// Poison the destinations: both forms must overwrite everything.
		col, refCol := seeded(12, n), seeded(13, n)
		im2col(s, img, col)
		refIm2Col(s, img, refCol)
		if !bitsEqual(col, refCol) {
			t.Errorf("%v: Im2Col span form differs from per-element form", s)
		}
		src := seeded(14, n)
		back, refBack := seeded(15, len(img)), seeded(16, len(img))
		Col2Im(s, src, back)
		refCol2Im(s, src, refBack)
		if !bitsEqual(back, refBack) {
			t.Errorf("%v: Col2Im span form differs from per-element form", s)
		}
	}
}

func TestConv2DBackwardMatchesSerialReference(t *testing.T) {
	for _, s := range convBackwardShapes() {
		x, w, gOut := convBackwardOperands(s, 21)
		refX, refW, refB := refConv2DBackward(s, x, w, gOut)
		dX := seeded(1, s.InputSize()) // poisoned: the kernel overwrites
		dW := seeded(2, s.WeightSize())
		dB := seeded(3, s.M)
		Conv2DBackward(s, x, w, gOut, dX, dW, dB)
		// dX is per image and keeps the old order exactly; dW and dBias
		// regroup the batch sum by chunk, so they agree to rounding, and
		// exactly (up to the sign of zero) while the batch is one chunk.
		if !bitsEqual(dX, refX) {
			t.Errorf("%v: dX differs from the serial reference", s)
		}
		tol := 1e-4
		if s.N <= convBwdChunk {
			tol = 0
		}
		if d := maxRelDiff(dW, refW); d > tol {
			t.Errorf("%v: dW off the serial reference by %g", s, d)
		}
		if d := maxRelDiff(dB, refB); d > tol {
			t.Errorf("%v: dBias off the serial reference by %g", s, d)
		}

		// Leaving a gradient out must not change the others by one bit.
		for _, skip := range []string{"dX", "dW", "dBias", "dX+dBias"} {
			oX, oW, oB := make([]float32, len(dX)), make([]float32, len(dW)), make([]float32, len(dB))
			switch skip {
			case "dX":
				oX = nil
			case "dW":
				oW = nil
			case "dBias":
				oB = nil
			case "dX+dBias":
				oX, oB = nil, nil
			}
			Conv2DBackward(s, x, w, gOut, oX, oW, oB)
			if (oX != nil && !bitsEqual(oX, dX)) || (oW != nil && !bitsEqual(oW, dW)) || (oB != nil && !bitsEqual(oB, dB)) {
				t.Errorf("%v: skipping %s changed another gradient", s, skip)
			}
		}
	}
}

// maxRelDiff is the largest |a-b| relative to the larger magnitude (or to 1
// for small values).
func maxRelDiff(a, b []float32) float64 {
	var worst float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		scale := math.Max(1, math.Max(math.Abs(float64(a[i])), math.Abs(float64(b[i]))))
		worst = math.Max(worst, d/scale)
	}
	return worst
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
			if !bitsEqual(dX, wantX) || !bitsEqual(dW, wantW) || !bitsEqual(dB, wantB) {
				t.Errorf("%v: %s differs from the 1-worker result", s, label)
			}
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

func BenchmarkIm2Col(b *testing.B) {
	s := ConvShape{N: 1, C: 6, H: 14, W: 14, M: 16, KH: 5, KW: 5, StrideH: 1, StrideW: 1}
	oh, ow := s.OutDims()
	img := seeded(1, s.C*s.H*s.W)
	col := make([]float32, s.C*s.KH*s.KW*oh*ow)
	b.Run("span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			im2col(s, img, col)
		}
	})
	b.Run("per-element", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refIm2Col(s, img, col)
		}
	})
}
