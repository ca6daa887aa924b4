package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"deep500/internal/tensor"
)

func randSlice(rng *tensor.RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.Norm())
	}
	return s
}

func gemmRef(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			c[i*n+j] = float32(s)
		}
	}
	return c
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

// TestGemmAgreesWithReference pits the product kernel and the naive
// triple loop against a float64 reference on shapes either side of the
// small-M rule and of the packing tiles.
func TestGemmAgreesWithReference(t *testing.T) {
	rng := tensor.NewRNG(1)
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 9, 33}, {64, 64, 64}, {100, 3, 50}, {65, 130, 31}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		want := gemmRef(a, b, m, k, n)
		for name, gemm := range map[string]func(a, b, c []float32, m, k, n int){"product": Gemm, "naive": GemmNaive} {
			c := make([]float32, m*n)
			gemm(a, b, c, m, k, n)
			if d := maxAbsDiff(c, want); d > 1e-3*float64(k) {
				t.Errorf("%s %dx%dx%d: max diff %g", name, m, k, n, d)
			}
		}
	}
}

func TestGemmOverwritesOutput(t *testing.T) {
	a := []float32{1, 0, 0, 1}
	c := []float32{9, 9, 9, 9}
	Gemm(a, a, c, 2, 2, 2)
	if c[0] != 1 || c[1] != 0 || c[3] != 1 {
		t.Fatalf("stale output not cleared: %v", c)
	}
}

func TestGemmPanicsOnShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gemm(make([]float32, 3), make([]float32, 4), make([]float32, 4), 2, 2, 2)
}

func TestGemmTransB(t *testing.T) {
	rng := tensor.NewRNG(2)
	m, k, n := 7, 11, 5
	a := randSlice(rng, m*k)
	b := randSlice(rng, n*k) // B is n×k
	bt := make([]float32, k*n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			bt[j*n+i] = b[i*k+j]
		}
	}
	want := gemmRef(a, bt, m, k, n)
	c := make([]float32, m*n)
	GemmTransB(a, b, c, m, k, n)
	if d := maxAbsDiff(c, want); d > 1e-4 {
		t.Fatalf("GemmTransB diff %g", d)
	}
}

func TestGemmTransA(t *testing.T) {
	rng := tensor.NewRNG(3)
	m, k, n := 6, 9, 4
	a := randSlice(rng, k*m) // A is k×m
	b := randSlice(rng, k*n)
	at := make([]float32, m*k)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			at[j*k+i] = a[i*m+j]
		}
	}
	want := gemmRef(at, b, m, k, n)
	c := make([]float32, m*n)
	GemmTransA(a, b, c, m, k, n)
	if d := maxAbsDiff(c, want); d > 1e-4 {
		t.Fatalf("GemmTransA diff %g", d)
	}
}

func TestGemmFLOPs(t *testing.T) {
	if GemmFLOPs(2, 3, 4) != 48 {
		t.Fatalf("GemmFLOPs = %d", GemmFLOPs(2, 3, 4))
	}
}

func TestPropGemmIdentity(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRNG(uint64(seed))
		n := rng.Intn(20) + 1
		a := randSlice(rng, n*n)
		id := make([]float32, n*n)
		for i := 0; i < n; i++ {
			id[i*n+i] = 1
		}
		c := make([]float32, n*n)
		Gemm(a, id, c, n, n, n)
		return maxAbsDiff(c, a) < 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropGemmLinearity(t *testing.T) {
	// (αA)·B == α(A·B)
	f := func(seed uint16, alpha8 int8) bool {
		rng := tensor.NewRNG(uint64(seed))
		alpha := float32(alpha8) / 16
		m, k, n := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		sa := make([]float32, len(a))
		for i, v := range a {
			sa[i] = alpha * v
		}
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		Gemm(sa, b, c1, m, k, n)
		Gemm(a, b, c2, m, k, n)
		for i := range c2 {
			c2[i] *= alpha
		}
		return maxAbsDiff(c1, c2) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
