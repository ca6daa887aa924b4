//go:build !amd64

package kernels

// useAVX2 is false off amd64: the pure-Go tile is the only micro-kernel.
var useAVX2 = false

func kernel4x16AVX2(pa, pb *float32, ka int, c *float32, ldc int) {
	panic("kernels: no assembly micro-kernel on this architecture")
}
