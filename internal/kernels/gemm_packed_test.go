package kernels

import (
	"fmt"
	"testing"

	"deep500/internal/tensor"
)

// raggedDims are deliberately awkward sizes around the micro-tile and
// cache-block boundaries, including 1 (GEMV-shaped calls).
var raggedDims = []int{1, 3, 17, 63, 64, 65, 127}

// transpose returns the n×m transpose of the m×n row-major matrix x.
func transpose(x []float32, m, n int) []float32 {
	t := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t[j*m+i] = x[i*n+j]
		}
	}
	return t
}

// TestGemmPackedRagged pits the packed kernel against the float64 reference
// on every ragged (m, k, n) combination: edge tiles in both directions,
// padded k depth, and m=1 GEMV shapes all hit their special paths.
func TestGemmPackedRagged(t *testing.T) {
	rng := tensor.NewRNG(11)
	for _, m := range raggedDims {
		for _, k := range raggedDims {
			for _, n := range raggedDims {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				want := gemmRef(a, b, m, k, n)
				c := make([]float32, m*n)
				Gemm(a, b, c, m, k, n)
				if d := maxAbsDiff(c, want); d > 1e-3*float64(k) {
					t.Fatalf("packed %dx%dx%d: max diff %g", m, k, n, d)
				}
			}
		}
	}
}

// TestGemmTRagged checks every transpose combination of GemmT against the
// reference, on ragged shapes that land on both sides of the shape rule.
func TestGemmTRagged(t *testing.T) {
	rng := tensor.NewRNG(12)
	for _, m := range raggedDims {
		for _, k := range raggedDims {
			for _, n := range raggedDims {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				want := gemmRef(a, b, m, k, n)
				at := transpose(a, m, k) // stored k×m
				bt := transpose(b, k, n) // stored n×k
				for _, tc := range []struct {
					transA, transB bool
					a, b           []float32
				}{
					{false, false, a, b},
					{true, false, at, b},
					{false, true, a, bt},
					{true, true, at, bt},
				} {
					c := make([]float32, m*n)
					GemmT(tc.a, tc.b, c, m, k, n, tc.transA, tc.transB)
					if d := maxAbsDiff(c, want); d > 1e-3*float64(k) {
						t.Fatalf("GemmT(%v,%v) %dx%dx%d: max diff %g",
							tc.transA, tc.transB, m, k, n, d)
					}
				}
			}
		}
	}
}

// TestGemmTransVariantsRagged exercises the exported GemmTransA/GemmTransB
// entry points on both sides of the shape rule.
func TestGemmTransVariantsRagged(t *testing.T) {
	rng := tensor.NewRNG(13)
	for _, m := range raggedDims {
		for _, k := range raggedDims {
			for _, n := range raggedDims {
				if m > 65 || n > 65 { // keep the cubic sweep affordable
					continue
				}
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				want := gemmRef(a, b, m, k, n)

				// GemmTransB: C = A·(Bᵀ)ᵀ with B stored n×k.
				bt := transpose(b, k, n)
				c := make([]float32, m*n)
				GemmTransB(a, bt, c, m, k, n)
				if d := maxAbsDiff(c, want); d > 1e-3*float64(k) {
					t.Fatalf("GemmTransB %dx%dx%d: max diff %g", m, k, n, d)
				}

				// GemmTransA: C = (Aᵀ)ᵀ·B with A stored k×m.
				at := transpose(a, m, k)
				c2 := make([]float32, m*n)
				GemmTransA(at, b, c2, m, k, n)
				if d := maxAbsDiff(c2, want); d > 1e-3*float64(k) {
					t.Fatalf("GemmTransA %dx%dx%d: max diff %g", m, k, n, d)
				}
			}
		}
	}
}

// TestGemmPackedConcurrent runs many packed GEMMs from concurrent
// goroutines against a widened worker pool, so the race detector can see
// pack-buffer recycling and shared packed-B panels misbehave.
func TestGemmPackedConcurrent(t *testing.T) {
	old := Default
	Default = NewPool(4)
	defer func() { Default = old }()

	rng := tensor.NewRNG(14)
	m, k, n := 150, 140, 130
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	want := gemmRef(a, b, m, k, n)

	const goroutines = 4
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for iter := 0; iter < 8; iter++ {
				c := make([]float32, m*n)
				Gemm(a, b, c, m, k, n)
				if d := maxAbsDiff(c, want); d > 1e-3*float64(k) {
					errc <- fmt.Errorf("concurrent packed: max diff %g", d)
					return
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestGemmPackedScratchReuse asserts the pack buffers recycle: after a
// warm-up call, repeated packed GEMMs should be served entirely from the
// scratch arena, so its idle footprint neither grows (a miss allocates a
// buffer that is returned afterwards) nor shrinks (a buffer not returned).
func TestGemmPackedScratchReuse(t *testing.T) {
	rng := tensor.NewRNG(15)
	m, k, n := 96, 96, 96
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	c := make([]float32, m*n)
	Gemm(a, b, c, m, k, n) // warm the arena
	before := scratch.FreeBytes()
	if before == 0 {
		t.Fatal("packed GEMM returned no scratch to the arena")
	}
	for i := 0; i < 4; i++ {
		Gemm(a, b, c, m, k, n)
	}
	if after := scratch.FreeBytes(); after != before {
		t.Fatalf("scratch arena idle bytes %d after warm calls, %d before", after, before)
	}
}
