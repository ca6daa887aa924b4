package kernels

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"deep500/internal/tensor"
)

// gemmPackedBitsHash is the FNV-64a hash of every output bit of
// TestGemmPackedBitsPinned's sweep, computed with the scalar 2×4 tile the
// vector micro-kernel replaced. A kernel change that moves any output bit of
// the packed GEMM — and with it every golden value, trajectory and
// checkpoint — changes this hash.
const gemmPackedBitsHash = 0x195769e0c4a09564

// TestGemmPackedBitsPinned holds gemmPacked's output to the bits it had
// before the vector micro-kernel, across builds, on the micro-kernel this
// host runs and on the pure-Go tile. The sweep covers the benchmark
// workloads' GEMMs (the MLP's three dense layers forward, their transB input
// gradients and transA weight gradients, and LeNet conv2's per-image
// product), ragged shapes that cross packMC, packKC and packNC in every
// operand layout, and an A that is one-third exact zeros.
func TestGemmPackedBitsPinned(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	paths := []bool{false}
	if useAVX2 {
		paths = append(paths, true)
	}
	for _, asm := range paths {
		useAVX2 = asm
		if got := gemmPackedSweepHash(); got != gemmPackedBitsHash {
			t.Errorf("assembly kernel %v: gemmPacked output hash %#016x, want %#016x: a kernel change moved output bits",
				asm, got, uint64(gemmPackedBitsHash))
		}
	}
}

func gemmPackedSweepHash() uint64 {
	shapes := []struct {
		m, k, n        int
		transA, transB bool
	}{
		{32, 784, 512, false, false},
		{32, 512, 512, false, false},
		{32, 512, 10, false, false},
		{32, 512, 784, false, true},
		{32, 512, 512, false, true},
		{32, 10, 512, false, true},
		{784, 32, 512, true, false},
		{512, 32, 512, true, false},
		{512, 32, 10, true, false},
		{16, 150, 100, false, false},
		{133, 300, 37, false, false},
		{9, 513, 2053, false, true},
		{130, 259, 2050, true, true},
		{17, 257, 45, true, false},
	}
	rng := tensor.NewRNG(27)
	h := fnv.New64a()
	var word [4]byte
	sum := func(c []float32) {
		for _, v := range c {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
			h.Write(word[:])
		}
	}
	for _, s := range shapes {
		a := randSlice(rng, s.m*s.k)
		b := randSlice(rng, s.k*s.n)
		c := make([]float32, s.m*s.n)
		gemmPacked(a, b, c, s.m, s.k, s.n, s.transA, s.transB)
		sum(c)
	}
	// One third of A exactly zero, as behind a ReLU or in padded im2col rows.
	const m, k, n = 48, 200, 70
	a := randSlice(rng, m*k)
	for i := 0; i < len(a); i += 3 {
		a[i] = 0
	}
	b := randSlice(rng, k*n)
	c := make([]float32, m*n)
	gemmPacked(a, b, c, m, k, n, false, false)
	sum(c)
	return h.Sum64()
}

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

// TestMicroKernelFallbackBitwise holds the assembly micro-kernel and the
// pure-Go tile to the same bits on every live extent (mr 1–4, nr 1–16) and
// every depth from 1 to just past packKC, adding into a C that already holds
// values and checking that nothing outside the tile is written. It clears
// useAVX2 to reach the pure-Go path, so it skips where there is no assembly
// kernel to compare.
func TestMicroKernelFallbackBitwise(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 micro-kernel on this host: the pure-Go tile is the only path")
	}
	defer func() { useAVX2 = true }()
	rng := tensor.NewRNG(28)
	const ldc = packNR + 3
	for depth := 1; depth <= packKC+5; depth++ {
		ka := kcAligned(depth)
		pa := make([]float32, packMR*ka)
		pb := make([]float32, packNR*ka)
		for p := 0; p < depth; p++ {
			for r := 0; r < packMR; r++ {
				if v := float32(rng.Norm()); (p+r)%3 != 0 {
					pa[p*packMR+r] = v
				}
			}
			for j := 0; j < packNR; j++ {
				pb[p*packNR+j] = float32(rng.Norm())
			}
		}
		c0 := randSlice(rng, packMR*ldc)
		for mr := 1; mr <= packMR; mr++ {
			for nr := 1; nr <= packNR; nr++ {
				asm := append([]float32(nil), c0...)
				useAVX2 = true
				microKernel(pa, pb, ka, asm, ldc, mr, nr)
				fallback := append([]float32(nil), c0...)
				useAVX2 = false
				microKernel(pa, pb, ka, fallback, ldc, mr, nr)
				requireSameBits(t, fmt.Sprintf("depth %d, %d×%d tile", depth, mr, nr), asm, fallback)
			}
		}
	}
}

// TestGemmPackedSerialAllocsNothing: once the scratch pool is warm a serial
// packed GEMM allocates nothing, on full tiles and on edge tiles whose
// stack tile is handed to the assembly kernel (it must not escape).
func TestGemmPackedSerialAllocsNothing(t *testing.T) {
	old := Default
	Default = NewPool(1)
	defer func() { Default = old }()
	rng := tensor.NewRNG(29)
	for _, s := range []struct{ m, k, n int }{{32, 784, 512}, {37, 300, 45}} {
		a := randSlice(rng, s.m*s.k)
		b := randSlice(rng, s.k*s.n)
		c := make([]float32, s.m*s.n)
		allocs := testing.AllocsPerRun(10, func() {
			gemmPacked(a, b, c, s.m, s.k, s.n, false, true)
			gemmPacked(a, b, c, s.m, s.k, s.n, true, false)
		})
		if allocs != 0 {
			t.Fatalf("%dx%dx%d: %v allocations per serial packed GEMM, want 0", s.m, s.k, s.n, allocs)
		}
	}
}
