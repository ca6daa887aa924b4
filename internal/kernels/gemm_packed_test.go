package kernels

import (
	"fmt"
	"math"
	"testing"

	"deep500/internal/tensor"
)

// gemmPackedSweepHash hashes gemmPacked's output over the benchmark
// workloads' GEMMs (the MLP's three dense layers forward, their transB input
// gradients and transA weight gradients, and LeNet conv2's per-image
// product), ragged shapes that cross packMC, packKC and packNC in every
// operand layout, and an A that is one-third exact zeros. With rows > 0 an
// untransposed A is multiplied rows rows at a time, which moves the shapes
// between the routes of the shape rules and must not move a bit.
func gemmPackedSweepHash(rows int) uint64 {
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
	h := NewBitsHasher()
	for _, s := range shapes {
		a := randSlice(rng, s.m*s.k)
		b := randSlice(rng, s.k*s.n)
		c := make([]float32, s.m*s.n)
		if s.transA {
			gemmPacked(a, b, c, s.m, s.k, s.n, true, s.transB)
		} else {
			gemmRowsAtATime(a, b, c, s.m, s.k, s.n, s.transB, rows)
		}
		h.Floats(c)
	}
	// One third of A exactly zero, as behind a ReLU or in padded im2col rows.
	const m, k, n = 48, 200, 70
	a := randSlice(rng, m*k)
	for i := 0; i < len(a); i += 3 {
		a[i] = 0
	}
	b := randSlice(rng, k*n)
	c := make([]float32, m*n)
	gemmRowsAtATime(a, b, c, m, k, n, false, rows)
	h.Floats(c)
	return h.Sum64()
}

// gemmRowsAtATime is gemmPacked for an untransposed A, called on at most
// rows rows of A at a time (on all of them when rows is 0).
func gemmRowsAtATime(a, b, c []float32, m, k, n int, transB bool, rows int) {
	if rows == 0 {
		rows = m
	}
	for i := 0; i < m; i += rows {
		gemmPacked(a[i*k:], b, c[i*n:], min(rows, m-i), k, n, false, transB)
	}
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
// every depth from 1 to just past packKC, on a packed B panel over the
// padded depth, and holds the assembly kernel reading the same values in
// place from a wider row, over the exact depth, to those bits too (the
// other columns of the row are NaN and must not be read). It adds into a C
// that already holds values, and stores into one whose tile is NaN, which
// must give the bits of adding into a zeroed tile; nothing outside the
// tile may be written. It clears useAVX2 to reach the pure-Go path, so it
// skips where there is no assembly kernel to compare.
func TestMicroKernelFallbackBitwise(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 micro-kernel on this host: the pure-Go tile is the only path")
	}
	defer func() { useAVX2 = true }()
	rng := tensor.NewRNG(28)
	const ldc = packNR + 3
	const ldb = packNR + 5
	for depth := 1; depth <= packKC+5; depth++ {
		ka := kcAligned(depth)
		pa := make([]float32, packMR*ka)
		pb := make([]float32, packNR*ka)
		inPlace := make([]float32, depth*ldb)
		for p := 0; p < depth; p++ {
			for r := 0; r < packMR; r++ {
				if v := float32(rng.Norm()); (p+r)%3 != 0 {
					pa[p*packMR+r] = v
				}
			}
			for j := 0; j < packNR; j++ {
				pb[p*packNR+j] = float32(rng.Norm())
				inPlace[p*ldb+j] = pb[p*packNR+j]
			}
			for j := packNR; j < ldb; j++ {
				inPlace[p*ldb+j] = float32(math.NaN())
			}
		}
		c0 := randSlice(rng, packMR*ldc)
		for mr := 1; mr <= packMR; mr++ {
			for nr := 1; nr <= packNR; nr++ {
				withTile := func(v float32) []float32 {
					c := append([]float32(nil), c0...)
					for r := 0; r < mr; r++ {
						for j := 0; j < nr; j++ {
							c[r*ldc+j] = v
						}
					}
					return c
				}
				// Storing is adding into a zeroed tile.
				stored := withTile(0)
				useAVX2 = false
				microKernel(pa, pb, ka, packNR, stored, ldc, mr, nr, true)
				for _, add := range []bool{true, false} {
					start, want := c0, []float32(nil)
					if !add {
						start, want = withTile(float32(math.NaN())), stored
					}
					for _, tc := range []struct {
						b       []float32
						kd, ldb int
						asm     bool
					}{{pb, ka, packNR, true}, {pb, ka, packNR, false}, {inPlace, depth, ldb, true}} {
						got := append([]float32(nil), start...)
						useAVX2 = tc.asm
						microKernel(pa, tc.b, tc.kd, tc.ldb, got, ldc, mr, nr, add)
						if want == nil {
							want = got
						}
						requireSameBits(t, fmt.Sprintf("depth %d, %d×%d tile, ldb %d, avx2=%v, add=%v", depth, mr, nr, tc.ldb, tc.asm, add), got, want)
					}
				}
			}
		}
	}
}

// TestKernel4x32MatchesTwo4x16: the AVX-512 tile gives the bits of the
// pure-Go tile run on each of its two panels, at every depth from 1 to just
// past packKC, on two packed panels over the padded depth and on the same
// values read in place from a wider row over the exact depth (the columns
// past the pair are NaN and must not be read). It adds into a C that holds
// values and stores into one whose tile is NaN, and writes nothing outside
// the 4×32 tile. It skips where the CPU has no AVX-512.
func TestKernel4x32MatchesTwo4x16(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512 on this host: the 4×32 tile never runs")
	}
	rng := tensor.NewRNG(62)
	const ldc = 2*packNR + 3
	const ldb = 2*packNR + 5
	for depth := 1; depth <= packKC+5; depth++ {
		ka := kcAligned(depth)
		pa := make([]float32, packMR*ka)
		for p := 0; p < depth; p++ {
			for r := 0; r < packMR; r++ {
				if v := float32(rng.Norm()); (p+r)%3 != 0 {
					pa[p*packMR+r] = v
				}
			}
		}
		packed := make([]float32, 2*packNR*ka)
		inPlace := nanSlice(depth * ldb)
		for p := 0; p < depth; p++ {
			for j := 0; j < 2*packNR; j++ {
				v := float32(rng.Norm())
				packed[j/packNR*packNR*ka+p*packNR+j%packNR] = v
				inPlace[p*ldb+j] = v
			}
		}
		c0 := randSlice(rng, packMR*ldc)
		for _, add := range []bool{true, false} {
			start := c0
			if !add {
				start = append([]float32(nil), c0...)
				for r := 0; r < packMR; r++ {
					copy(start[r*ldc:r*ldc+2*packNR], nanSlice(2*packNR))
				}
			}
			want := append([]float32(nil), start...)
			microKernelGo(pa, packed, ka, want, ldc, packMR, packNR, add)
			microKernelGo(pa, packed[packNR*ka:], ka, want[packNR:], ldc, packMR, packNR, add)
			for _, tc := range []struct {
				b            []float32
				kd, ldb, off int
			}{{packed, ka, packNR, packNR * ka}, {inPlace, depth, ldb, packNR}} {
				got := append([]float32(nil), start...)
				kernel4x32AVX512(&pa[0], &tc.b[0], tc.kd, tc.ldb, tc.off, &got[0], ldc, add)
				requireSameBits(t, fmt.Sprintf("depth %d, ldb %d, add=%v", depth, tc.ldb, add), got, want)
			}
		}
	}
}

// TestGemmPanelsPairRoutes: on every kernel path, each route of the loop
// nest that can hand the AVX-512 tile a pair of panels gives from a
// NaN-filled C the bits the pure-Go tile gives into a zeroed one. The
// column counts give even and odd panel counts, with and without a ragged
// last panel: at 785 the last full panel, read in place, sits next to a
// ragged packed one and must stay unpaired. The depths end a depth block
// at one step, just short of, at and past packKC, and at 600 a third
// block adds to the first two. B is read in place (at 2100 columns also
// with a row longer than its packNC column block), packed because A spans
// two macro blocks, transposed, and pre-packed transposed (convolution's
// weight gradient); A is pre-packed with B read in place or pre-packed too
// (convolution's forward pass); and the rows are ragged.
func TestGemmPanelsPairRoutes(t *testing.T) {
	rng := tensor.NewRNG(63)
	type route struct {
		name       string
		m          int
		transB     bool
		preA, preB bool
		ns         []int
	}
	ns := []int{16, 32, 48, 100, 784, 785}
	routes := []route{
		{"B read in place", 8, false, false, false, append(ns, 2100)},
		{"B packed", packMC + 4, false, false, false, ns},
		{"B transposed", 8, true, false, false, ns},
		{"B pre-packed transposed", 8, true, false, true, ns},
		{"A pre-packed", 8, false, true, false, ns},
		{"A and B pre-packed", 8, false, true, true, ns},
	}
	for _, m := range []int{1, 2, 3, 5, 6, 7} {
		routes = append(routes, route{"ragged rows", m, false, false, false, ns})
	}
	for _, r := range routes {
		for _, n := range r.ns {
			for _, k := range []int{1, packKC - 1, packKC, packKC + 1, 600} {
				a, b := randSlice(rng, r.m*k), randSlice(rng, k*n)
				ap, bp := wholePacks(a, b, r.m, k, n, false, r.transB)
				if !r.preA {
					ap = nil
				}
				if !r.preB {
					bp = nil
				}
				var want []float32
				onEachPath(func(p kernelPath) {
					if want == nil {
						want = make([]float32, r.m*n)
						gemmPanels(a, b, ap, bp, want, r.m, k, n, false, r.transB)
					}
					got := nanSlice(r.m * n)
					gemmPanels(a, b, ap, bp, got, r.m, k, n, false, r.transB)
					requireSameBits(t, fmt.Sprintf("%s, %d×%d×%d, %s", r.name, r.m, k, n, p.name), got, want)
				})
			}
		}
	}
}

// nanSlice returns n NaNs.
func nanSlice(n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(math.NaN())
	}
	return x
}

// TestGemmPanelsWritesC: gemmPanels writes C and never reads it. On both
// paths every route of the loop nest gives from a NaN-filled C the bits it
// gives from a zeroed one, and k = 0 gives zeros.
func TestGemmPanelsWritesC(t *testing.T) {
	rng := tensor.NewRNG(59)
	onEachMicroKernel(t, func(t *testing.T) {
		for _, s := range []struct {
			route          string
			m, k, n        int
			transA, transB bool
			prePacked      bool
			workers        int
		}{
			{"B read in place", 32, 512, 784, false, false, false, 1},
			{"B packed", packMC + 4, 40, 48, false, false, false, 1},
			{"B packed, a macro block per worker", 2*packMC + 4, 40, 48, false, false, false, 2},
			{"A and B pre-packed", 20, 300, 50, false, false, true, 1},
			{"A transposed", 20, 64, 48, true, false, false, 1},
			{"B transposed", 32, 512, 512, false, true, false, 1},
			{"ragged edge tiles", 7, 13, 21, false, false, false, 1},
			{"ragged, both transposed", 9, 30, 37, true, true, false, 1},
			{"k past packKC", 9, packKC + 3, 33, false, false, false, 1},
			{"k = 0", 5, 0, 17, false, false, false, 1},
		} {
			a, b := randSlice(rng, s.m*s.k), randSlice(rng, s.k*s.n)
			var ap, bp []float32
			if s.prePacked {
				ap, bp = wholePacks(a, b, s.m, s.k, s.n, s.transA, s.transB)
			}
			withPool(s.workers, func() {
				zeroed, poisoned := make([]float32, s.m*s.n), nanSlice(s.m*s.n)
				gemmPanels(a, b, ap, bp, zeroed, s.m, s.k, s.n, s.transA, s.transB)
				gemmPanels(a, b, ap, bp, poisoned, s.m, s.k, s.n, s.transA, s.transB)
				requireSameBits(t, s.route, poisoned, zeroed)
				if s.k == 0 {
					requireSameBits(t, s.route, poisoned, make([]float32, s.m*s.n))
				}
			})
		}
	})
}

// TestPackTransposesMatchScalar: the vector packs write the bytes of their
// scalar loops. A full transposed B panel (four depth steps per transpose,
// kc mod 4 one at a time) and an A panel read from four rows side by side
// (eight per transpose, kc mod 8 one at a time) are packed at kc 1–17 and
// 255–257 from awkward values, B with a row stride longer than kc and at a
// depth offset, into NaN-filled panels, two full B panels and a ragged one.
// It skips where there is no assembly pack to compare.
func TestPackTransposesMatchScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 pack on this host: the scalar loops are the only path")
	}
	defer func() { useAVX2 = true }()
	rng := tensor.NewRNG(60)
	kcs := []int{255, 256, 257}
	for kc := 1; kc <= 17; kc++ {
		kcs = append(kcs, kc)
	}
	for _, kc := range kcs {
		const nc, p0 = 2*packNR + 5, 3
		ldb := kc + p0 + 2
		b := awkwardMix(rng, nc*ldb)
		size := (nc + packNR - 1) / packNR * packNR * kcAligned(kc)
		rows := [packMR][]float32{b[1:][:kc], b[ldb+2:][:kc], b[5*ldb:][:kc], b[9*ldb+3:][:kc]}
		var wantB, wantA []float32
		for _, asm := range []bool{false, true} {
			useAVX2 = asm
			gotB, gotA := nanSlice(size), nanSlice(packMR*kc)
			packBPanels(b, ldb, p0, 0, kc, nc, true, gotB)
			packRowsSideBySide(gotA, rows[0], rows[1], rows[2], rows[3])
			if wantB == nil {
				wantB, wantA = gotB, gotA
			}
			requireSameBits(t, fmt.Sprintf("transposed B, kc %d, avx2=%v", kc, asm), gotB, wantB)
			requireSameBits(t, fmt.Sprintf("A rows side by side, kc %d, avx2=%v", kc, asm), gotA, wantA)
		}
	}
}

// TestGemmPackedSerialAllocsNothing: once the scratch pool is warm a serial
// packed GEMM allocates nothing, on full tiles and on edge tiles whose
// stack tile is handed to the assembly kernel (it must not escape), with B
// packed or read in place.
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
			gemmPacked(a, b, c, s.m, s.k, s.n, false, false)
		})
		if allocs != 0 {
			t.Fatalf("%dx%dx%d: %v allocations per serial packed GEMM, want 0", s.m, s.k, s.n, allocs)
		}
	}
}
