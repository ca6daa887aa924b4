package kernels

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"deep500/internal/tensor"
)

// lenetConvShapes are LeNet's two convolutions at batch n.
func lenetConvShapes(n int) []ConvShape {
	return []ConvShape{
		{N: n, C: 1, H: 28, W: 28, M: 6, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
		{N: n, C: 6, H: 14, W: 14, M: 16, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
	}
}

// convSweepHash hashes the im2col convolution's forward output and its
// backward dX, dW and dBias on LeNet's conv1 and conv2, at batch 1 and 32.
func convSweepHash() uint64 {
	rng := tensor.NewRNG(28)
	h := NewBitsHasher()
	for _, n := range []int{1, 32} {
		for _, s := range lenetConvShapes(n) {
			x := randSlice(rng, s.InputSize())
			if s.C > 1 {
				// conv2 reads a pooled ReLU output: about half exact zeros.
				for i := range x {
					x[i] = max(x[i], 0)
				}
			}
			w := randSlice(rng, s.WeightSize())
			bias := randSlice(rng, s.M)
			gOut := randSlice(rng, s.OutputSize())
			out := make([]float32, s.OutputSize())
			Conv2D(ConvIm2Col, s, x, w, bias, out)
			h.Floats(out)
			dX, dW, dB := make([]float32, len(x)), make([]float32, len(w)), make([]float32, s.M)
			Conv2DBackward(s, x, w, gOut, dX, dW, dB)
			h.Floats(dX)
			h.Floats(dW)
			h.Floats(dB)
		}
	}
	return h.Sum64()
}

// convLoweringShapes is the differential grid for the panel writers: the
// backward grid plus a depth C·KH·KW past packKC that is not a multiple of
// packNR, one that is a multiple, output planes past packKC and past packNC,
// and a filter count past packMC (two row blocks of the pre-packed filter).
func convLoweringShapes() []ConvShape {
	return append(convBackwardShapes(),
		ConvShape{N: 1, C: 1, H: 50, W: 45, M: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		ConvShape{N: 2, C: 12, H: 9, W: 9, M: 20, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		ConvShape{N: 2, C: 16, H: 20, W: 20, M: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		ConvShape{N: 1, C: 3, H: 40, W: 37, M: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		ConvShape{N: 5, C: 2, H: 6, W: 6, M: 130, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	)
}

// col2ImMix returns n values for Col2Im: awkwardMix's normal draws, zeros
// and ties, with ±0 and denormals of both signs in place of its NaNs,
// infinities and ±MaxFloat32. An add of two NaNs returns its first
// operand's, and gc may commute a scalar float add (under -race it does in
// Col2Im's loop), so which NaN a sum keeps is no part of the bit contract;
// nor is the NaN an overflow to +Inf and −Inf makes, which differs between
// architectures.
func col2ImMix(rng *tensor.RNG, n int) []float32 {
	x := awkwardMix(rng, n)
	for i, v := range x {
		if a := math.Abs(float64(v)); a != a || a >= math.MaxFloat32 {
			x[i] = math.Float32frombits(uint32(i%3) | uint32(i%2)<<31)
		}
	}
	return x
}

// convLoweringSweepHash hashes the im2col convolution's forward output, its
// backward dX, dW and dBias, and Col2Im of a col2ImMix column matrix, over
// convLoweringShapes, a 3×3 stride-2 convolution (too many runs per panel
// for the run writers) and a padded 5×5 one whose Col2Im clips oy at both
// image edges.
func convLoweringSweepHash() uint64 {
	rng := tensor.NewRNG(29)
	h := NewBitsHasher()
	for i, s := range append(convLoweringShapes(),
		ConvShape{N: 3, C: 4, H: 15, W: 17, M: 6, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		ConvShape{N: 2, C: 3, H: 9, W: 11, M: 4, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 3, PadW: 3},
	) {
		x, w, gOut := convBackwardOperands(s, uint64(100+3*i))
		bias := randSlice(rng, s.M)
		out := make([]float32, s.OutputSize())
		Conv2D(ConvIm2Col, s, x, w, bias, out)
		h.Floats(out)
		dX, dW, dB := make([]float32, len(x)), make([]float32, len(w)), make([]float32, s.M)
		Conv2DBackward(s, x, w, gOut, dX, dW, dB)
		h.Floats(dX)
		h.Floats(dW)
		h.Floats(dB)
		oh, ow := s.OutDims()
		img := make([]float32, s.C*s.H*s.W)
		Col2Im(s, col2ImMix(rng, s.C*s.KH*s.KW*oh*ow), img)
		h.Floats(img)
	}
	return h.Sum64()
}

// onEachMicroKernel runs f on the assembly tile, where this host has it,
// and on the pure-Go tile.
func onEachMicroKernel(t *testing.T, f func(t *testing.T)) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	paths := []bool{false}
	if useAVX2 {
		paths = append(paths, true)
	}
	for _, asm := range paths {
		useAVX2 = asm
		t.Run(fmt.Sprintf("avx2=%v", asm), f)
	}
}

// packColumns packs a column matrix (taps×positions) the way the loop nest
// would, as a whole-operand B pack: straight for out = W·col, transposed
// for dW = g·colᵀ.
func packColumns(col []float32, taps, positions int, trans bool) []float32 {
	k, n := taps, positions
	if trans {
		k, n = positions, taps
	}
	n16 := (n + packNR - 1) / packNR * packNR
	dst := make([]float32, packedLen(n, packNR, k))
	for pc := 0; pc < k; pc += packKC {
		packBPanels(col, positions, pc, 0, min(packKC, k-pc), n, trans, dst[n16*pc:])
	}
	return dst
}

// TestGemmPanelsPrepackedMatchesPacked: handing the loop nest pre-packed
// A, B or both changes no output bit, on shapes that cross packMC, packKC
// and packNC in every operand layout. A pre-packed B is never read in
// place, so this also holds the in-place route to the packed one.
func TestGemmPanelsPrepackedMatchesPacked(t *testing.T) {
	rng := tensor.NewRNG(56)
	onEachMicroKernel(t, func(t *testing.T) {
		for _, s := range []struct {
			m, k, n        int
			transA, transB bool
		}{
			{6, 25, 784, false, false},
			{16, 150, 100, false, true},
			{133, 300, 37, true, false},
			{9, 513, 2053, false, true},
			{130, 259, 2050, true, true},
			{packMC, 259, 2050, false, false},
			// A's last panel of 1, 2 and 3 rows, in both layouts.
			{5, 300, 37, false, false},
			{6, 300, 37, true, false},
			{7, 33, 20, false, true},
			{9, 33, 20, true, true},
		} {
			a := randSlice(rng, s.m*s.k)
			b := randSlice(rng, s.k*s.n)
			want := make([]float32, s.m*s.n)
			gemmPacked(a, b, want, s.m, s.k, s.n, s.transA, s.transB)
			ap, bp := wholePacks(a, b, s.m, s.k, s.n, s.transA, s.transB)
			for _, with := range []struct {
				name   string
				ap, bp []float32
			}{{"A", ap, nil}, {"B", nil, bp}, {"A and B", ap, bp}} {
				got := randSlice(rng, s.m*s.n)
				gemmPanels(a, b, with.ap, with.bp, got, s.m, s.k, s.n, s.transA, s.transB)
				requireSameBits(t, fmt.Sprintf("%+v: pre-packed %s", s, with.name), got, want)
			}
		}
	})
}

// wholePacks returns gemmPanels' whole-operand packs of op(A) (m×k) and
// op(B) (k×n).
func wholePacks(a, b []float32, m, k, n int, transA, transB bool) (ap, bp []float32) {
	lda, ldb := k, n
	if transA {
		lda = m
	}
	if transB {
		ldb = k
	}
	ap = make([]float32, packedLen(m, packMR, k))
	packAWhole(a, lda, m, k, transA, ap)
	n16 := (n + packNR - 1) / packNR * packNR
	bp = make([]float32, packedLen(n, packNR, k))
	for pc := 0; pc < k; pc += packKC {
		packBPanels(b, ldb, pc, 0, min(packKC, k-pc), n, transB, bp[n16*pc:])
	}
	return ap, bp
}

// TestConvLoweringPanelsMatchPackedIm2Col: both panel writers leave exactly
// the bytes packBPanels makes of the image's column matrix, into buffers
// poisoned beforehand.
func TestConvLoweringPanelsMatchPackedIm2Col(t *testing.T) {
	onEachMicroKernel(t, func(t *testing.T) {
		for _, s := range convLoweringShapes() {
			oh, ow := s.OutDims()
			spatial, ckk := oh*ow, s.C*s.KH*s.KW
			img := seeded(51, s.C*s.H*s.W)
			col := make([]float32, ckk*spatial)
			im2col(s, img, col)

			want := packColumns(col, ckk, spatial, false)
			got := seeded(52, len(want))
			im2colPanels(s, img, got, seeded(53, paddedLen(s)))
			requireSameBits(t, fmt.Sprintf("%v: im2colPanels", s), got, want)

			want = packColumns(col, ckk, spatial, true)
			got = seeded(54, len(want))
			im2colPanelsT(s, img, got, seeded(55, paddedLen(s)))
			requireSameBits(t, fmt.Sprintf("%v: im2colPanelsT", s), got, want)
		}
	})
}

// columnConv2D is the forward lowering as it was before the panel writers:
// per image, the column matrix, then the packed GEMM over it.
func columnConv2D(s ConvShape, in, w, out []float32) {
	oh, ow := s.OutDims()
	spatial, ckk := oh*ow, s.C*s.KH*s.KW
	col := make([]float32, ckk*spatial)
	for n := 0; n < s.N; n++ {
		im2col(s, in[n*s.C*s.H*s.W:], col)
		gemmPacked(w, col, out[n*s.M*spatial:(n+1)*s.M*spatial], s.M, ckk, spatial, false, false)
	}
}

// columnConv2DBackward is Conv2DBackward's arithmetic as it was before the
// panel writers, serially: per image the column matrix and the packed GEMMs
// over it, dW and dBias summed in image order within a chunk of
// convBwdChunk images and the chunk sums added in chunk order.
func columnConv2DBackward(s ConvShape, x, w, gOut []float32) (dX, dW, dB []float32) {
	oh, ow := s.OutDims()
	spatial, ckk, imgLen := oh*ow, s.C*s.KH*s.KW, s.C*s.H*s.W
	dX, dW, dB = make([]float32, s.InputSize()), make([]float32, s.WeightSize()), make([]float32, s.M)
	col, dcol := make([]float32, ckk*spatial), make([]float32, ckk*spatial)
	imgW := make([]float32, len(dW))
	partW, partB := make([]float32, len(dW)), make([]float32, s.M)
	for n0 := 0; n0 < s.N; n0 += convBwdChunk {
		for n := n0; n < min(n0+convBwdChunk, s.N); n++ {
			g := gOut[n*s.M*spatial : (n+1)*s.M*spatial]
			im2col(s, x[n*imgLen:], col)
			gemmPacked(g, col, imgW, s.M, spatial, ckk, false, true)
			gemmPacked(w, g, dcol, ckk, s.M, spatial, true, false)
			Col2Im(s, dcol, dX[n*imgLen:])
			if n == n0 {
				copy(partW, imgW)
			} else {
				addTo(partW, imgW)
			}
			for m := range partB {
				var sum float32
				for _, v := range g[m*spatial : (m+1)*spatial] {
					sum += v
				}
				if n == n0 {
					partB[m] = sum
				} else {
					partB[m] += sum
				}
			}
		}
		if n0 == 0 {
			copy(dW, partW)
			copy(dB, partB)
		} else {
			addTo(dW, partW)
			addTo(dB, partB)
		}
	}
	return dX, dW, dB
}

// TestConvLoweringMatchesColumnGemm: Conv2D(im2col) and Conv2DBackward
// give bit for bit what lowering through the column matrix and the packed
// GEMM gave, on a one- and a four-worker pool.
func TestConvLoweringMatchesColumnGemm(t *testing.T) {
	onEachMicroKernel(t, func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			withPool(workers, func() {
				for _, s := range convLoweringShapes() {
					what := fmt.Sprintf("%d workers, %v", workers, s)
					x, w, gOut := convBackwardOperands(s, 61)
					want := make([]float32, s.OutputSize())
					columnConv2D(s, x, w, want)
					got := seeded(62, s.OutputSize())
					Conv2D(ConvIm2Col, s, x, w, nil, got)
					requireSameBits(t, what+": Conv2D", got, want)
					wantX, wantW, wantB := columnConv2DBackward(s, x, w, gOut)
					dX, dW, dB := seeded(63, len(x)), seeded(64, len(w)), seeded(65, s.M)
					Conv2DBackward(s, x, w, gOut, dX, dW, dB)
					requireSameBits(t, what+": dX", dX, wantX)
					requireSameBits(t, what+": dW", dW, wantW)
					requireSameBits(t, what+": dBias", dB, wantB)
				}
			})
		}
	})
}

// TestConv2DBackwardMatchesSerialReference: on the default pool, every
// gradient Conv2DBackward is asked for equals the serial reference
// (columnConv2DBackward) bit for bit, whichever of the others are left out.
func TestConv2DBackwardMatchesSerialReference(t *testing.T) {
	onEachMicroKernel(t, func(t *testing.T) {
		for _, s := range convBackwardShapes() {
			x, w, gOut := convBackwardOperands(s, 21)
			refX, refW, refB := columnConv2DBackward(s, x, w, gOut)
			for _, skip := range []string{"none", "dX", "dW", "dBias", "dX+dBias"} {
				// Poisoned: the kernel overwrites what it computes.
				o := [][]float32{seeded(1, len(x)), seeded(2, len(w)), seeded(3, s.M)}
				for i, name := range []string{"dX", "dW", "dBias"} {
					if strings.Contains(skip, name) {
						o[i] = nil
					}
				}
				Conv2DBackward(s, x, w, gOut, o[0], o[1], o[2])
				for i, want := range [][]float32{refX, refW, refB} {
					if o[i] != nil {
						requireSameBits(t, fmt.Sprintf("%v: gradient %d without %s", s, i, skip), o[i], want)
					}
				}
			}
		}
	})
}

// TestConvLoweringAllocsNothing: on a one-worker pool, once the scratch
// pool is warm, a LeNet convolution forward and backward allocates nothing:
// panels, filter packs and partials all come from the scratch pool.
func TestConvLoweringAllocsNothing(t *testing.T) {
	withPool(1, func() {
		for _, s := range lenetConvShapes(32) {
			x, w, gOut := convBackwardOperands(s, 71)
			bias := seeded(72, s.M)
			out := make([]float32, s.OutputSize())
			dX, dW, dB := make([]float32, len(x)), make([]float32, len(w)), make([]float32, s.M)
			allocs := testing.AllocsPerRun(5, func() {
				Conv2D(ConvIm2Col, s, x, w, bias, out)
				Conv2DBackward(s, x, w, gOut, dX, dW, dB)
			})
			if allocs != 0 {
				t.Errorf("%v: %v allocations per forward+backward, want 0", s, allocs)
			}
		}
	})
}

// TestConv2DShortBiasPanics: a bias shorter than the filter count is
// refused up front, with the message every short buffer gets.
func TestConv2DShortBiasPanics(t *testing.T) {
	s := ConvShape{N: 1, C: 2, H: 5, W: 5, M: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	for _, algo := range []ConvAlgo{ConvDirect, ConvIm2Col, ConvWinograd} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "buffer too small") {
					t.Errorf("%v with a short bias: panic %q, want \"buffer too small\"", algo, msg)
				}
			}()
			Conv2D(algo, s, make([]float32, s.InputSize()), make([]float32, s.WeightSize()),
				make([]float32, s.M-1), make([]float32, s.OutputSize()))
		}()
	}
}

// panelRunCounts returns, for each panel of im2colPanels (trans false) or
// im2colPanelsT (trans true) at shape s, how many runs of consecutive
// offsets its live lanes split into.
func panelRunCounts(s ConvShape, trans bool) []int {
	oh, ow := s.OutDims()
	hp, wp := s.H+2*s.PadH, s.W+2*s.PadW
	var offs []int
	if trans {
		for q := 0; q < s.C*s.KH*s.KW; q++ {
			offs = append(offs, (q/(s.KH*s.KW)*hp+q/s.KW%s.KH)*wp+q%s.KW)
		}
	} else {
		for j := 0; j < oh*ow; j++ {
			offs = append(offs, j/ow*s.StrideH*wp+j%ow*s.StrideW)
		}
	}
	var counts []int
	for l, o := range offs {
		if l%packNR == 0 {
			counts = append(counts, 0)
		}
		if l%packNR == 0 || o != offs[l-1]+1 {
			counts[len(counts)-1]++
		}
	}
	return counts
}

// TestConvRunsEdgeCases runs the panel writers and Col2Im, on each kernel
// path, over the shapes where the run writer and the vector Col2Im have
// edges: both writers must leave packBPanels' bytes over the column matrix
// in poisoned buffers, and Col2Im the per-element scatter's bits for a
// col2ImMix column matrix (±0, denormals, ties). Each case names the edge
// and checks that its shape has it.
func TestConvRunsEdgeCases(t *testing.T) {
	type edge struct {
		name string
		s    ConvShape
		has  func(s ConvShape) bool
	}
	last := func(c []int) int { return c[len(c)-1] }
	cases := []edge{
		{"last run ends on the image's last float",
			ConvShape{N: 1, C: 2, H: 6, W: 7, M: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
			func(s ConvShape) bool {
				return last(panelRunCounts(s, false)) == 1 && last(panelRunCounts(s, true)) == 1
			}},
		{"last run ends on the padded image's last float",
			ConvShape{N: 1, C: 1, H: 5, W: 5, M: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
			func(s ConvShape) bool { return last(panelRunCounts(s, false)) == 2 }},
		{"one live lane",
			ConvShape{N: 1, C: 2, H: 1, W: 19, M: 2, KH: 1, KW: 3, StrideH: 1, StrideW: 1},
			func(s ConvShape) bool {
				_, ow := s.OutDims()
				return ow%packNR == 1 && last(panelRunCounts(s, false)) == 1
			}},
		{"one live lane of taps",
			ConvShape{N: 1, C: 17, H: 4, W: 4, M: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
			func(s ConvShape) bool { return s.C%packNR == 1 && last(panelRunCounts(s, true)) == 1 }},
		{"n = 1 rows",
			ConvShape{N: 1, C: 3, H: 7, W: 1, M: 2, KH: 2, KW: 1, StrideH: 1, StrideW: 1},
			func(s ConvShape) bool { _, ow := s.OutDims(); return s.KW == 1 && ow == 1 }},
		{"exactly maxRuns runs",
			ConvShape{N: 1, C: 2, H: 9, W: 8, M: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
			func(s ConvShape) bool {
				return slices.Max(panelRunCounts(s, false)) == maxRuns && slices.Max(panelRunCounts(s, true)) == maxRuns
			}},
		{"more than maxRuns runs: gathered",
			ConvShape{N: 1, C: 2, H: 9, W: 9, M: 2, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
			func(s ConvShape) bool {
				return slices.Min(panelRunCounts(s, false)) > maxRuns && panelRunCounts(s, true)[0] > maxRuns
			}},
		{"a gathered panel beside run panels",
			ConvShape{N: 1, C: 1, H: 10, W: 5, M: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
			func(s ConvShape) bool {
				c := panelRunCounts(s, false)
				return c[0] > maxRuns && last(c) <= maxRuns
			}},
		{"depth past packKC",
			ConvShape{N: 1, C: 16, H: 8, W: 8, M: 3, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
			func(s ConvShape) bool { return s.C*s.KH*s.KW > packKC }},
		{"ragged last panels of several runs",
			ConvShape{N: 1, C: 3, H: 7, W: 7, M: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
			func(s ConvShape) bool {
				oh, ow := s.OutDims()
				return oh*ow%packNR != 0 && last(panelRunCounts(s, false)) > 1 &&
					s.C*s.KH*s.KW%packNR != 0 && last(panelRunCounts(s, true)) > 1
			}},
	}
	// Col2Im spans of every length, from tail only (1–7) to two vectors
	// and a tail.
	for w := 1; w <= 17; w++ {
		cases = append(cases, edge{fmt.Sprintf("Col2Im span of %d", w),
			ConvShape{N: 1, C: 2, H: 5, W: w + 2, M: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
			func(s ConvShape) bool { _, ow := s.OutDims(); return ow == w }})
	}
	onEachMicroKernel(t, func(t *testing.T) {
		for _, c := range cases {
			s := c.s
			if !c.has(s) {
				t.Fatalf("%s: %v does not have the edge", c.name, s)
			}
			oh, ow := s.OutDims()
			spatial, ckk := oh*ow, s.C*s.KH*s.KW
			img := seeded(91, s.C*s.H*s.W)
			col := make([]float32, ckk*spatial)
			im2col(s, img, col)
			for _, trans := range []bool{false, true} {
				want := packColumns(col, ckk, spatial, trans)
				got := seeded(92, len(want))
				if trans {
					im2colPanelsT(s, img, got, seeded(93, paddedLen(s)))
				} else {
					im2colPanels(s, img, got, seeded(93, paddedLen(s)))
				}
				requireSameBits(t, fmt.Sprintf("%s (%v): panels, transposed %v", c.name, s, trans), got, want)
			}
			dcol := col2ImMix(tensor.NewRNG(94), ckk*spatial)
			got, want := seeded(95, len(img)), seeded(96, len(img))
			Col2Im(s, dcol, got)
			refCol2Im(s, dcol, want)
			requireSameBits(t, fmt.Sprintf("%s (%v): Col2Im", c.name, s), got, want)
		}
	})
}

// TestPackAPanelsRagged: a whole-operand A pack holds A's elements in panel
// order and +0 in the dead rows of a ragged last panel (M ≡ 1, 2, 3 mod 4)
// and in the depth padding, in both layouts, over a poisoned buffer.
func TestPackAPanelsRagged(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5, 6, 7, 8} {
		for _, k := range []int{1, 7, 300} {
			for _, trans := range []bool{false, true} {
				a := seeded(57, m*k)
				lda := k
				if trans {
					lda = m
				}
				m4 := (m + packMR - 1) / packMR * packMR
				want := make([]float32, packedLen(m, packMR, k))
				for pc := 0; pc < k; pc += packKC {
					ka := kcAligned(min(packKC, k-pc))
					for i := 0; i < m; i++ {
						for p := pc; p < min(pc+packKC, k); p++ {
							at := i*lda + p
							if trans {
								at = p*lda + i
							}
							want[m4*pc+i/packMR*packMR*ka+(p-pc)*packMR+i%packMR] = a[at]
						}
					}
				}
				got := seeded(58, len(want))
				packAWhole(a, lda, m, k, trans, got)
				requireSameBits(t, fmt.Sprintf("m=%d k=%d trans=%v", m, k, trans), got, want)
			}
		}
	}
}

// lowerThrough checks that tables t lower img to exactly the bytes
// packBPanels makes of its column matrix, in both directions.
func lowerThrough(t *testing.T, what string, tab *convTables, img []float32) {
	t.Helper()
	s := tab.shape
	oh, ow := s.OutDims()
	spatial, ckk := oh*ow, s.C*s.KH*s.KW
	col := make([]float32, ckk*spatial)
	im2col(s, img, col)
	for _, trans := range []bool{false, true} {
		want := packColumns(col, ckk, spatial, trans)
		got := seeded(59, len(want))
		tab.lower(img, got, seeded(60, paddedLen(s)), trans)
		requireSameBits(t, fmt.Sprintf("%s, transposed %v", what, trans), got, want)
	}
}

// cachedShapes returns the shapes c holds, in slot order.
func cachedShapes(c *tableCache) []ConvShape {
	var shapes []ConvShape
	for i := range c {
		if tab := c[i].Load(); tab != nil {
			shapes = append(shapes, tab.shape)
		}
	}
	return shapes
}

// TestConvTablesConcurrentFirstUse: goroutines that meet a new shape at
// the same moment all get tables that lower it correctly, and the cache
// keeps exactly one entry for it (run it under -race).
func TestConvTablesConcurrentFirstUse(t *testing.T) {
	s := ConvShape{C: 3, H: 13, W: 11, M: 5, KH: 3, KW: 2, StrideH: 1, StrideW: 1, PadH: 1}
	img := seeded(73, s.C*s.H*s.W)
	onEachMicroKernel(t, func(t *testing.T) {
		var c tableCache
		start := make(chan struct{})
		got := make([]*convTables, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = c.get(s)
			}()
		}
		close(start)
		wg.Wait()
		for g, tab := range got {
			lowerThrough(t, fmt.Sprintf("goroutine %d", g), tab, img)
		}
		if shapes := cachedShapes(&c); len(shapes) != 1 || shapes[0] != s {
			t.Fatalf("cache holds %v, want only %v", shapes, s)
		}
	})
}

// TestConvTablesIgnoreBatch: tables built for a batch of 32 are the ones a
// batch of 1 gets, and Conv2D and Conv2DBackward at batch 1 through them
// give the column-matrix route's bits.
func TestConvTablesIgnoreBatch(t *testing.T) {
	var c tableCache
	s32 := ConvShape{N: 32, C: 6, H: 14, W: 14, M: 16, KH: 5, KW: 5, StrideH: 1, StrideW: 1}
	s1 := s32
	s1.N = 1
	if a, b := c.get(s32), c.get(s1); a != b || len(cachedShapes(&c)) != 1 || a.shape.N != 0 {
		t.Fatalf("batch 32 then 1: tables %p and %p, cache %v; want one entry with N = 0", a, b, cachedShapes(&c))
	}
	onEachMicroKernel(t, func(t *testing.T) {
		for _, s := range []ConvShape{s32, s1} {
			x, w, gOut := convBackwardOperands(s, 74)
			want := make([]float32, s.OutputSize())
			columnConv2D(s, x, w, want)
			got := seeded(75, s.OutputSize())
			Conv2D(ConvIm2Col, s, x, w, nil, got)
			requireSameBits(t, fmt.Sprintf("%v: Conv2D", s), got, want)
			wantX, wantW, wantB := columnConv2DBackward(s, x, w, gOut)
			dX, dW, dB := seeded(76, len(x)), seeded(77, len(w)), seeded(78, s.M)
			Conv2DBackward(s, x, w, gOut, dX, dW, dB)
			requireSameBits(t, fmt.Sprintf("%v: dX", s), dX, wantX)
			requireSameBits(t, fmt.Sprintf("%v: dW", s), dW, wantW)
			requireSameBits(t, fmt.Sprintf("%v: dBias", s), dB, wantB)
		}
	})
	s1.N = 0
	if n := len(slices.DeleteFunc(cachedShapes(&convTableCache), func(c ConvShape) bool { return c != s1 })); n != 1 {
		t.Errorf("the package cache holds %d entries for %v, want 1", n, s1)
	}
}

// TestConvTablesOverCap: once the cache is full, a new shape's tables are
// built for the call and not kept, and lower it to the same bytes.
func TestConvTablesOverCap(t *testing.T) {
	var c tableCache
	for i := 0; i < convTablesCap; i++ {
		c.get(ConvShape{C: 1, H: 3 + i, W: 3, M: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1})
	}
	s := ConvShape{C: 2, H: 9, W: 8, M: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	a, b := c.get(s), c.get(s)
	if a == b || slices.Contains(cachedShapes(&c), s) || len(cachedShapes(&c)) != convTablesCap {
		t.Fatalf("over the cap: %v kept, or one table served twice", s)
	}
	onEachMicroKernel(t, func(t *testing.T) {
		lowerThrough(t, "over the cap", a, seeded(79, s.C*s.H*s.W))
	})
}
