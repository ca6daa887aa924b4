package kernels

import (
	"testing"
	"testing/quick"

	"deep500/internal/tensor"
)

func TestConvAlgorithmsAgree(t *testing.T) {
	rng := tensor.NewRNG(11)
	shapes := []ConvShape{
		{N: 1, C: 1, H: 5, W: 5, M: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
		{N: 2, C: 3, H: 8, W: 8, M: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{N: 1, C: 2, H: 9, W: 7, M: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{N: 3, C: 4, H: 6, W: 6, M: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
	}
	for _, s := range shapes {
		in := randSlice(rng, s.InputSize())
		w := randSlice(rng, s.WeightSize())
		bias := randSlice(rng, s.M)
		ref := make([]float32, s.OutputSize())
		Conv2D(ConvDirect, s, in, w, bias, ref)
		for _, algo := range []ConvAlgo{ConvIm2Col, ConvWinograd} {
			out := make([]float32, s.OutputSize())
			Conv2D(algo, s, in, w, bias, out)
			if d := maxAbsDiff(out, ref); d > 2e-4*float64(s.C*s.KH*s.KW) {
				t.Errorf("%v vs direct on %v: max diff %g", algo, s, d)
			}
		}
	}
}

func TestConvStridedIm2Col(t *testing.T) {
	rng := tensor.NewRNG(12)
	s := ConvShape{N: 2, C: 3, H: 11, W: 9, M: 5, KH: 5, KW: 3, StrideH: 2, StrideW: 2, PadH: 2, PadW: 1}
	in := randSlice(rng, s.InputSize())
	w := randSlice(rng, s.WeightSize())
	ref := make([]float32, s.OutputSize())
	out := make([]float32, s.OutputSize())
	Conv2D(ConvDirect, s, in, w, nil, ref)
	Conv2D(ConvIm2Col, s, in, w, nil, out)
	if d := maxAbsDiff(out, ref); d > 1e-3 {
		t.Fatalf("strided im2col diff %g", d)
	}
}

func TestConvOutDims(t *testing.T) {
	s := ConvShape{N: 1, C: 1, H: 224, W: 224, M: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	oh, ow := s.OutDims()
	if oh != 224 || ow != 224 {
		t.Fatalf("same-pad dims %dx%d", oh, ow)
	}
	s = ConvShape{N: 1, C: 1, H: 224, W: 224, M: 1, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
	oh, ow = s.OutDims()
	if oh != 112 || ow != 112 {
		t.Fatalf("resnet stem dims %dx%d", oh, ow)
	}
}

func TestConvWinogradUnsupportedPanics(t *testing.T) {
	s := ConvShape{N: 1, C: 1, H: 5, W: 5, M: 1, KH: 5, KW: 5, StrideH: 1, StrideW: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 5x5 Winograd")
		}
	}()
	Conv2D(ConvWinograd, s, make([]float32, s.InputSize()), make([]float32, s.WeightSize()), nil, make([]float32, s.OutputSize()))
}

func TestConvWorkspaceOrdering(t *testing.T) {
	s := ConvShape{N: 1, C: 64, H: 56, W: 56, M: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if s.WorkspaceBytes(ConvDirect) != 0 {
		t.Fatal("direct should need no workspace")
	}
	if s.WorkspaceBytes(ConvIm2Col) <= s.WorkspaceBytes(ConvWinograd) {
		t.Fatalf("expected im2col workspace (%d) > winograd (%d) at this shape",
			s.WorkspaceBytes(ConvIm2Col), s.WorkspaceBytes(ConvWinograd))
	}
}

func TestIm2ColCol2ImRoundTripShape(t *testing.T) {
	// col2im(im2col(x)) with a 1x1 kernel and stride 1 is the identity.
	s := ConvShape{N: 1, C: 3, H: 4, W: 5, M: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	rng := tensor.NewRNG(5)
	img := randSlice(rng, s.C*s.H*s.W)
	oh, ow := s.OutDims()
	col := make([]float32, s.C*s.KH*s.KW*oh*ow)
	im2col(s, img, col)
	back := make([]float32, len(img))
	Col2Im(s, col, back)
	if d := maxAbsDiff(img, back); d != 0 {
		t.Fatalf("1x1 round trip diff %g", d)
	}
}

func TestConvFLOPs(t *testing.T) {
	s := ConvShape{N: 1, C: 1, H: 3, W: 3, M: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	// single output position, 9 MACs = 18 FLOPs
	if s.FLOPs() != 18 {
		t.Fatalf("FLOPs = %d", s.FLOPs())
	}
}

func TestPropConvLinearInInput(t *testing.T) {
	// conv(a·x) == a·conv(x)
	f := func(seed uint16, a8 int8) bool {
		rng := tensor.NewRNG(uint64(seed))
		alpha := float32(a8) / 8
		s := ConvShape{N: 1, C: rng.Intn(3) + 1, H: rng.Intn(6) + 3, W: rng.Intn(6) + 3,
			M: rng.Intn(3) + 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		in := randSlice(rng, s.InputSize())
		w := randSlice(rng, s.WeightSize())
		sin := make([]float32, len(in))
		for i, v := range in {
			sin[i] = alpha * v
		}
		o1 := make([]float32, s.OutputSize())
		o2 := make([]float32, s.OutputSize())
		Conv2D(ConvDirect, s, sin, w, nil, o1)
		Conv2D(ConvDirect, s, in, w, nil, o2)
		for i := range o2 {
			o2[i] *= alpha
		}
		return maxAbsDiff(o1, o2) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
