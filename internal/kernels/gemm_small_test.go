package kernels

import (
	"fmt"
	"math"
	"testing"

	"deep500/internal/tensor"
)

// halfZeros returns n normal draws with the negative half replaced by exact
// zeros: what a GEMM's A operand looks like behind a ReLU, and the input on
// which the small-M kernel's zero skipping has to be invisible.
func halfZeros(rng *tensor.RNG, n int) []float32 {
	x := randSlice(rng, n)
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return x
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %g (%#x), want %g (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestGemmSmallMBitwiseEqualsPacked is the contract the shape rule rests on:
// over every shape it can route to the in-place kernel — both B layouts,
// depths on either side of the packKC block edge, ragged n — the result is
// the packed kernel's, bit for bit, with half of A exactly zero.
func TestGemmSmallMBitwiseEqualsPacked(t *testing.T) {
	rng := tensor.NewRNG(20)
	for _, m := range []int{1, 2, 3, 6, 7, 8} {
		for _, k := range []int{1, 3, 25, 150, 255, 256, 257, 784} {
			for _, n := range []int{1, 3, 4, 5, 10, 100, 120, 784} {
				for _, transB := range []bool{false, true} {
					if !gemmInPlace(m, k, n, false, transB) {
						t.Fatalf("%dx%dx%d transB=%v is not routed to the small-M kernel", m, k, n, transB)
					}
					a := halfZeros(rng, m*k)
					b := randSlice(rng, k*n)
					want := make([]float32, m*n)
					got := make([]float32, m*n)
					for i := range got {
						got[i] = float32(math.NaN()) // C must be overwritten, not read
					}
					gemmPacked(a, b, want, m, k, n, false, transB)
					gemmSmallM(a, b, got, m, k, n, transB)
					requireSameBits(t, fmt.Sprintf("small-M %dx%dx%d transB=%v", m, k, n, transB), got, want)
				}
			}
		}
	}
}

// TestGemmRule pins the rule itself: small m with A as stored reads B in
// place, one row more packs, and a transposed A always packs.
func TestGemmRule(t *testing.T) {
	for _, tc := range []struct {
		m              int
		transA, transB bool
		inPlace        bool
	}{
		{1, false, false, true},
		{1, false, true, true},
		{smallMRows, false, false, true},
		{smallMRows, false, true, true},
		{smallMRows + 1, false, false, false},
		{smallMRows + 1, false, true, false},
		{32, false, false, false},
		{1, true, false, false},
		{smallMRows, true, true, false},
	} {
		if got := gemmInPlace(tc.m, 256, 120, tc.transA, tc.transB); got != tc.inPlace {
			t.Errorf("gemmInPlace(m=%d, transA=%v, transB=%v) = %v, want %v", tc.m, tc.transA, tc.transB, got, tc.inPlace)
		}
	}
}

// TestGemmRowIndependentOfBatch: a row multiplied alone (small-M), with 7
// others (small-M) and with 15 others (packed) gives the same bits through
// the public entry points, for both B layouts.
func TestGemmRowIndependentOfBatch(t *testing.T) {
	rng := tensor.NewRNG(21)
	const k, n = 400, 120
	a := halfZeros(rng, 16*k)
	b := randSlice(rng, k*n)
	bt := transpose(b, k, n)
	for _, m := range []int{1, 8, 16} {
		c := make([]float32, m*n)
		Gemm(a, b, c, m, k, n)
		ct := make([]float32, m*n)
		GemmTransB(a, bt, ct, m, k, n)
		requireSameBits(t, "layouts agree", ct, c)
		alone := make([]float32, n)
		Gemm(a[(m-1)*k:], b, alone, 1, k, n)
		requireSameBits(t, "last row alone vs in batch", c[(m-1)*n:], alone)
	}
}

// TestPackPanelsMatchParent holds the vector-move pack functions to the
// element-at-a-time forms they replaced (kept below), byte for byte, on
// blocks whose edges are not multiples of MR, NR or KU, from a dirty
// destination.
func TestPackPanelsMatchParent(t *testing.T) {
	rng := tensor.NewRNG(22)
	const rows, cols = 41, 29 // a transposed B reads rows up to off+ext
	src := randSlice(rng, rows*cols)
	dirty := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(math.NaN())
		}
		return x
	}
	for _, trans := range []bool{false, true} {
		for _, ext := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31, 33} { // mc or nc
			for _, kc := range []int{1, 2, 3, 4, 5, 8, 11} {
				for _, off := range []int{0, 1, 3} {
					// Logical element (i, p) of A is src[i*cols+p], or
					// src[p*cols+i] when trans; B likewise with (p, j).
					size := (ext + packNR) * kcAligned(kc)
					got, want := dirty(size), dirty(size)
					packAPanels(src, cols, off, off+1, ext, kc, trans, got)
					oldPackAPanels(src, cols, off, off+1, ext, kc, trans, want)
					na := (ext + packMR - 1) / packMR * packMR * kcAligned(kc)
					requireSameBits(t, "packAPanels", got[:na], want[:na])

					got, want = dirty(size), dirty(size)
					packBPanels(src, cols, off+1, off, kc, ext, trans, got)
					oldPackBPanels(src, cols, off+1, off, kc, ext, trans, want)
					nb := (ext + packNR - 1) / packNR * packNR * kcAligned(kc)
					requireSameBits(t, "packBPanels", got[:nb], want[:nb])
				}
			}
		}
	}
}

// oldPackAPanels and oldPackBPanels are the pack functions as they stood
// before the vector-move rewrite: the reference for TestPackPanelsMatchParent.
func oldPackAPanels(a []float32, lda, i0, p0, mc, kc int, trans bool, dst []float32) {
	ka := kcAligned(kc)
	panels := (mc + packMR - 1) / packMR
	for ip := 0; ip < panels; ip++ {
		rows := min(packMR, mc-ip*packMR)
		panel := dst[ip*packMR*ka : (ip+1)*packMR*ka]
		if trans {
			// A stored k×m: element (i, p) lives at a[p*lda+i]; reading r
			// (the row of the logical block) is contiguous and matches the
			// panel layout, so both sides stream.
			for p := 0; p < kc; p++ {
				src := a[(p0+p)*lda+i0+ip*packMR:]
				d := panel[p*packMR : p*packMR+packMR]
				for r := 0; r < rows; r++ {
					d[r] = src[r]
				}
				for r := rows; r < packMR; r++ {
					d[r] = 0
				}
			}
		} else {
			for r := 0; r < rows; r++ {
				src := a[(i0+ip*packMR+r)*lda+p0:]
				for p := 0; p < kc; p++ {
					panel[p*packMR+r] = src[p]
				}
			}
			for r := rows; r < packMR; r++ {
				for p := 0; p < kc; p++ {
					panel[p*packMR+r] = 0
				}
			}
		}
		for i := kc * packMR; i < ka*packMR; i++ {
			panel[i] = 0
		}
	}
}
func oldPackBPanels(b []float32, ldb, p0, j0, kc, nc int, trans bool, dst []float32) {
	ka := kcAligned(kc)
	panels := (nc + packNR - 1) / packNR
	for jp := 0; jp < panels; jp++ {
		cols := min(packNR, nc-jp*packNR)
		panel := dst[jp*packNR*ka : (jp+1)*packNR*ka]
		if trans {
			// B stored n×k: element (p, j) lives at b[j*ldb+p]; read each
			// logical column (contiguous in p) and scatter with stride NR.
			for j := 0; j < cols; j++ {
				src := b[(j0+jp*packNR+j)*ldb+p0:]
				for p := 0; p < kc; p++ {
					panel[p*packNR+j] = src[p]
				}
			}
		} else {
			for p := 0; p < kc; p++ {
				src := b[(p0+p)*ldb+j0+jp*packNR:]
				d := panel[p*packNR : p*packNR+packNR]
				for j := 0; j < cols; j++ {
					d[j] = src[j]
				}
			}
		}
		if cols < packNR {
			for p := 0; p < kc; p++ {
				d := panel[p*packNR : p*packNR+packNR]
				for j := cols; j < packNR; j++ {
					d[j] = 0
				}
			}
		}
		for i := kc * packNR; i < ka*packNR; i++ {
			panel[i] = 0
		}
	}
}
