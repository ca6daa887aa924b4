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

// BenchmarkGemmTiles is gemmPacked's GFLOP/s on one core with a one-worker
// pool, on each micro-kernel path: train_tcp_mlp's three GEMMs of its first
// layer (forward, the transB input gradient and the transA weight
// gradient) and a 256³ product. docs/kernels.md has the table.
//
//	go test ./internal/kernels -run '^$' -bench GemmTiles -benchmem -cpu 1
func BenchmarkGemmTiles(b *testing.B) {
	shapes := []struct {
		name           string
		m, k, n        int
		transA, transB bool
	}{
		{"32x784x512", 32, 784, 512, false, false},
		{"32x512x784-transB", 32, 512, 784, false, true},
		{"784x32x512-transA", 784, 32, 512, true, false},
		{"256x256x256", 256, 256, 256, false, false},
	}
	rng := tensor.NewRNG(2)
	withPool(1, func() {
		for _, s := range shapes {
			a, bm, c := randSlice(rng, s.m*s.k), randSlice(rng, s.k*s.n), make([]float32, s.m*s.n)
			onEachPath(func(p kernelPath) {
				b.Run(s.name+"/"+p.short, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						gemmPacked(a, bm, c, s.m, s.k, s.n, s.transA, s.transB)
					}
					b.ReportMetric(2*float64(s.m*s.k*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			})
		}
	})
}

// BenchmarkConvLeNet times LeNet's two convolutions at batch 32 on a
// one-worker pool, per layer and direction — the forward pass, the weight
// gradient (dW and dBias, as for conv1, whose input needs no gradient) and
// the input gradient alone — on each kernel path: the pure-Go panel writers,
// Col2Im and GEMM tile, the AVX2 ones, and those with the AVX-512 GEMM tile.
// docs/kernels.md has the table. CI runs it once as a smoke test.
//
//	go test ./internal/kernels -run '^$' -bench ConvLeNet -benchmem -cpu 1
func BenchmarkConvLeNet(b *testing.B) {
	withPool(1, func() {
		for i, s := range lenetConvShapes(32) {
			x, w, gOut := convBackwardOperands(s, 81)
			bias := seeded(82, s.M)
			out := make([]float32, s.OutputSize())
			dX, dW, dB := make([]float32, len(x)), make([]float32, len(w)), make([]float32, s.M)
			layer := fmt.Sprintf("conv%d", i+1)
			onEachPath(func(p kernelPath) {
				b.Run(layer+"/fwd/"+p.short, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						Conv2D(ConvIm2Col, s, x, w, bias, out)
					}
				})
				b.Run(layer+"/dW/"+p.short, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						Conv2DBackward(s, x, w, gOut, nil, dW, dB)
					}
				})
				b.Run(layer+"/dX/"+p.short, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						Conv2DBackward(s, x, w, gOut, dX, nil, nil)
					}
				})
			})
		}
	})
}

// BenchmarkPoolReLULeNet times LeNet's two ReLU → max-pool pairs at batch
// 32 (conv1's 32×6×28×28 output and conv2's 32×16×10×10), forward (ReLU,
// then the pool with argmax) and backward (the pool's input gradient, then
// ReLU's), on the pure-Go loops and on the AVX2 kernels. docs/kernels.md
// has the table. CI runs it once as a smoke test.
//
//	go test ./internal/kernels -run '^$' -bench PoolReLULeNet -benchmem -cpu 1
func BenchmarkPoolReLULeNet(b *testing.B) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	paths := []string{"go"}
	if useAVX2 {
		paths = append(paths, "avx2")
	}
	for i, s := range lenetPoolShapes(32) {
		x := seeded(uint64(90+i), s.inputSize())
		act, gradAct, gradX := make([]float32, len(x)), make([]float32, len(x)), make([]float32, len(x))
		out, argmax := make([]float32, s.OutputSize()), make([]int32, s.OutputSize())
		gOut := seeded(uint64(95+i), s.OutputSize())
		layer := fmt.Sprintf("pool%d", i+1)
		for _, path := range paths {
			asm := path == "avx2"
			b.Run(layer+"/fwd/"+path, func(b *testing.B) {
				useAVX2 = asm
				for i := 0; i < b.N; i++ {
					ReLU(x, act)
					MaxPool2D(s, act, out, argmax)
				}
			})
			b.Run(layer+"/bwd/"+path, func(b *testing.B) {
				useAVX2 = asm
				for i := 0; i < b.N; i++ {
					MaxPool2DBackward(s, gOut, argmax, gradAct)
					ReLUBackward(x, gradAct, gradX)
				}
			})
		}
	}
}

// BenchmarkUpdateLeNetFC1 times one MomentumFused and one SGDFused step
// over LeNet's fc1 weights (400×120 = 48 000 floats), on the pure-Go loops
// and on the AVX2 kernels, from a normal state and from a subnormal one:
// for Momentum the velocities a zero gradient leaves stuck at 1–4 ulp (most
// of fc1's late in a train_lenet run), for SGD subnormal gradients. Each
// scalar operation on a subnormal takes a microcode assist, and an assist
// costs the same for one lane as for eight. docs/kernels.md has the table.
// CI runs it once as a smoke test.
//
//	go test ./internal/kernels -run '^$' -bench UpdateLeNetFC1 -benchmem -cpu 1
func BenchmarkUpdateLeNetFC1(b *testing.B) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	paths := []string{"go"}
	if useAVX2 {
		paths = append(paths, "avx2")
	}
	for _, c := range []struct{ rule, state, class string }{
		{"momentum", "normal", "normal"},
		{"momentum", "subnormal", "stuck subnormal velocity"},
		{"sgd", "normal", "normal"},
		{"sgd", "subnormal", "subnormal gradient"},
	} {
		for _, path := range paths {
			param, grad, vel := updateState(c.class, tensor.NewRNG(35), 400*120)
			asm := path == "avx2"
			b.Run(c.rule+"/"+c.state+"/"+path, func(b *testing.B) {
				useAVX2 = asm
				for i := 0; i < b.N; i++ {
					if c.rule == "momentum" {
						MomentumFused(param, grad, vel, 0.02, 0.9)
					} else {
						SGDFused(param, grad, 0.05)
					}
				}
			})
		}
	}
}
