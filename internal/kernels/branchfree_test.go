package kernels

import (
	"math"
	"testing"

	"deep500/internal/tensor"
)

// The branch-free ReLU, ReLU gradient and unpadded max pool replaced
// compare-and-branch loops. Those loops are the reference (ReLU's kept here,
// the pool's still serving padded shapes as maxPool2DGeneral); the kernels
// must reproduce them bit for bit on every input, the awkward ones included:
// ±0, denormals, ±Inf, NaNs of either sign, ties.

func refReLU(in, out []float32) {
	for i, v := range in {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

func refReLUBackward(fwdIn, gradOut, gradIn []float32) {
	for i, v := range fwdIn {
		if v > 0 {
			gradIn[i] = gradOut[i]
		} else {
			gradIn[i] = 0
		}
	}
}

// awkward is every float32 class a comparison can treat specially.
var awkward = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -0.5,
	math.Float32frombits(1), math.Float32frombits(0x80000001), // ±smallest denormal
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), // ±quiet NaN
	math.Float32frombits(0x7f800001), math.Float32frombits(0xff800001), // ±signalling NaN
}

// awkwardMix returns n values: normal draws, exact zeros, repeated values
// (ties) and the awkward classes, interleaved.
func awkwardMix(rng *tensor.RNG, n int) []float32 {
	x := randSlice(rng, n)
	for i := range x {
		switch i % 5 {
		case 1:
			x[i] = 0
		case 2:
			x[i] = float32(int(x[i] * 2)) // few distinct values: ties
		case 3:
			x[i] = awkward[(i/5)%len(awkward)]
		}
	}
	return x
}

func TestReLUMatchesBranchingForm(t *testing.T) {
	rng := tensor.NewRNG(30)
	in := awkwardMix(rng, 4096)
	grad := awkwardMix(rng, 4096)
	got, want := make([]float32, len(in)), make([]float32, len(in))

	ReLU(in, got)
	refReLU(in, want)
	requireSameBits(t, "ReLU", got, want)

	ReLUBackward(in, grad, got)
	refReLUBackward(in, grad, want)
	requireSameBits(t, "ReLUBackward", got, want)

	// In place, as ops.ReLU may run it under the memory plan.
	copy(got, in)
	ReLU(got, got)
	refReLU(in, want)
	requireSameBits(t, "ReLU in place", got, want)
}

func TestMaxPoolUnpaddedMatchesGeneralLoop(t *testing.T) {
	rng := tensor.NewRNG(31)
	for _, s := range []PoolShape{
		{N: 2, C: 3, H: 28, W: 28, KH: 2, KW: 2, StrideH: 2, StrideW: 2}, // LeNet pool1
		{N: 2, C: 3, H: 10, W: 10, KH: 2, KW: 2, StrideH: 2, StrideW: 2}, // LeNet pool2
		{N: 1, C: 2, H: 9, W: 11, KH: 3, KW: 3, StrideH: 2, StrideW: 2},  // overlapping, ragged
		{N: 1, C: 2, H: 7, W: 5, KH: 3, KW: 2, StrideH: 1, StrideW: 1},
		{N: 1, C: 1, H: 5, W: 5, KH: 5, KW: 5, StrideH: 1, StrideW: 1},                   // one window
		{N: 1, C: 2, H: 8, W: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, // padded: general loop
	} {
		for _, relu := range []bool{false, true} {
			in := awkwardMix(rng, s.N*s.C*s.H*s.W)
			if relu { // what a pool behind a ReLU sees: zeros tie constantly
				ReLU(in, in)
			}
			got, want := make([]float32, s.OutputSize()), make([]float32, s.OutputSize())
			gotArg, wantArg := make([]int32, s.OutputSize()), make([]int32, s.OutputSize())
			MaxPool2D(s, in, got, gotArg)
			oh, ow := s.OutDims()
			maxPool2DGeneral(s, in, want, wantArg, oh, ow)
			requireSameBits(t, "MaxPool2D", got, want)
			for i := range wantArg {
				if gotArg[i] != wantArg[i] {
					t.Fatalf("%+v: argmax[%d] = %d, want %d", s, i, gotArg[i], wantArg[i])
				}
			}
			MaxPool2D(s, in, got, nil) // argmax is optional
			requireSameBits(t, "MaxPool2D without argmax", got, want)
		}
	}
}
