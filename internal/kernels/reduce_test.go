package kernels

import (
	"fmt"
	"math"
	"testing"
)

// refAddScaled is the loop the all-reduce ran before AddScaled: at scale 1
// it adds alone, so it holds AddScaled's product by 1 to the bare sum.
func refAddScaled(dst, src []float32, scale float32) {
	for i := range dst {
		if scale == 1 {
			dst[i] += src[i]
		} else {
			dst[i] = float32(dst[i]+src[i]) * scale
		}
	}
}

// reduceClasses are the value classes of the reduction table: normals, ±0,
// subnormals, ±Inf, the largest finite value and NaNs of both signs, quiet
// and signalling, with payloads.
var reduceClasses = []float32{
	1.5, -2.25, 0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32,
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002),
	math.Float32frombits(0x7f800003), math.Float32frombits(0xff800004),
}

func isNaN32(x float32) bool { return x != x }

// TestAddScaledMatchesGoLoop holds AddScaled on both paths to its Go loop,
// bit for bit: at lengths 0–17 and 8k ± 1 (the vector kernel's blocks of 32
// and 8 and its scalar tail), at scale 1 and ½, on every pair of value
// classes, each pair in a vector lane and in the scalar tail. An add of two
// NaNs must return dst's, quieted, as dst + src does.
func TestAddScaledMatchesGoLoop(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
	for _, k := range []int{3, 4, 5, 8, 16, 31, 32, 33} {
		lengths = append(lengths, 8*k-1, 8*k+1)
	}
	c := len(reduceClasses)
	onEachMicroKernel(t, func(t *testing.T) {
		for _, scale := range []float32{1, 0.5} {
			for _, n := range lengths {
				dst, src := make([]float32, n), make([]float32, n)
				for i := range dst {
					dst[i], src[i] = reduceClasses[i%c], reduceClasses[(i/c+3*i)%c]
				}
				want := append([]float32(nil), dst...)
				refAddScaled(want, src, scale)
				AddScaled(dst, src, scale)
				requireSameBits(t, fmt.Sprintf("n=%d scale=%g", n, scale), dst, want)
			}
			// Every pair: one call over vector lanes, then calls of 8,
			// one vector each, then calls of 7, all scalar tail.
			for _, piece := range []int{c * c, 8, 7} {
				dst, src := make([]float32, c*c), make([]float32, c*c)
				for i := range dst {
					dst[i], src[i] = reduceClasses[i%c], reduceClasses[i/c]
				}
				want := append([]float32(nil), dst...)
				refAddScaled(want, src, scale)
				for lo := 0; lo < len(dst); lo += piece {
					hi := min(lo+piece, len(dst))
					AddScaled(dst[lo:hi], src[lo:hi], scale)
				}
				what := fmt.Sprintf("every pair in pieces of %d, scale=%g", piece, scale)
				requireSameBits(t, what, dst, want)
				for i, d := range dst {
					x, y := reduceClasses[i%c], reduceClasses[i/c]
					if isNaN32(x) && isNaN32(y) && math.Float32bits(d) != math.Float32bits(x)|0x00400000 {
						t.Errorf("%s: %#08x + %#08x gave %#08x, want dst's NaN quieted", what,
							math.Float32bits(x), math.Float32bits(y), math.Float32bits(d))
					}
				}
			}
		}
	})
}
