package kernels

import (
	"fmt"
	"testing"

	"deep500/internal/tensor"
)

// BenchmarkGemmSmallM is the measurement behind smallMRows (docs/kernels.md
// has the table and how to read it): every (k, n) the four repository
// workloads multiply by, in both B layouts, at row counts on either side of
// the rule, through the always-packing kernel and through the shape rule.
// A is dense, the kernel's worst case: behind a ReLU the in-place kernel
// also skips the zero half of A. Run with -benchmem: both sides are 0 B/op
// once the scratch pool is warm. CI runs it once as a smoke test.
//
//	go test ./internal/kernels -run '^$' -bench GemmSmallM -benchmem -cpu 1
func BenchmarkGemmSmallM(b *testing.B) {
	shapes := []struct {
		name string
		k, n int
	}{
		{"lenet-fc1", 400, 120},
		{"lenet-fc2", 120, 84},
		{"lenet-conv1-col", 25, 784},  // m = 6 output channels per image
		{"lenet-conv2-col", 150, 100}, // m = 16
		{"mlp-fc1", 784, 256},
		{"mlp-fc2", 256, 256},
		{"tcp-mlp-fc1", 784, 512}, // train_tcp_mlp
		{"tcp-mlp-fc2", 512, 512},
	}
	rng := tensor.NewRNG(1)
	for _, s := range shapes {
		for _, transB := range []bool{false, true} {
			layout := "kxn"
			if transB {
				layout = "nxk"
			}
			for _, m := range []int{1, 2, 4, 6, 8, 12, 16, 32} {
				a := randSlice(rng, m*s.k)
				bm := randSlice(rng, s.k*s.n)
				c := make([]float32, m*s.n)
				name := fmt.Sprintf("%s/%s/m=%d", s.name, layout, m)
				b.Run(name+"/packed", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						gemmPacked(a, bm, c, m, s.k, s.n, false, transB)
					}
				})
				b.Run(name+"/routed", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						gemmDefault(a, bm, c, m, s.k, s.n, false, transB)
					}
				})
				b.Run(name+"/in-place", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						gemmSmallM(a, bm, c, m, s.k, s.n, transB)
					}
				})
			}
		}
	}
}
