package kernels

import (
	"math"
	"testing"
)

// TestBiasActMatchesComposition validates the dense-layer bias epilogue
// against its definition, a broadcast add of the bias row to every row, on
// a non-square matrix (so a per-row bias would be caught), bit for bit.
func TestBiasActMatchesComposition(t *testing.T) {
	const rows, cols = 3, 4
	src := []float32{
		-1.5, 0.25, 2, -0.125,
		0.5, -2, 1.25, 3,
		-0.75, 0.0625, -4, 0.875,
	}
	bias := []float32{0.5, -0.25, 0, 1}

	want := make([]float32, len(src))
	for i := range want {
		want[i] = src[i] + bias[i%cols]
	}
	got := append([]float32(nil), src...)
	BiasAct(rows, cols, got, bias)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("BiasAct = %v, want %v", got, want)
		}
	}
}
