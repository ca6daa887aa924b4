//go:build !amd64

package kernels

// useAVX2 and useAVX512 are false off amd64: the pure-Go tile is the only
// micro-kernel.
var useAVX2, useAVX512 = false, false

func kernel4x16AVX2(pa, pb *float32, kd, ldb int, c *float32, ldc int, add bool) {
	panic("kernels: no assembly micro-kernel on this architecture")
}

func kernel4x32AVX512(pa, pb *float32, kd, ldb, off int, c *float32, ldc int, add bool) {
	panic("kernels: no assembly micro-kernel on this architecture")
}

func packBTransAVX2(dst, b *float32, ldb, steps int) {
	panic("kernels: no assembly pack on this architecture")
}

func packRows4AVX2(dst, s0, s1, s2, s3 *float32, steps int) {
	panic("kernels: no assembly pack on this architecture")
}
