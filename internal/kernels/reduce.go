package kernels

// AddScaled is the all-reduce's reduce step: dst[i] = (dst[i] + src[i]) *
// scale. The sum is rounded to float32 before the product, as when they
// are two passes, and dst is each add's first operand, which decides the
// NaN an add of two NaNs returns. At scale 1 the product is the sum's
// bits: a NaN sum is already quiet, and x·1 is x for every other x. On
// AVX2 hosts the vector kernel (exact_amd64.s) makes the same roundings in
// the same operand order, so the bits are the loop's. src must be at least
// as long as dst.
func AddScaled(dst, src []float32, scale float32) {
	src = src[:len(dst)]
	if useAVX2 {
		addScaledAVX2(dst, src, scale)
		return
	}
	for i := range dst {
		dst[i] = float32(dst[i]+src[i]) * scale
	}
}
