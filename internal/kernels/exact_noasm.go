//go:build !amd64

package kernels

// Off amd64 useAVX2 is false and the pure-Go loops are the only kernels;
// these stubs keep the callers compiling.

func maxPool2x2AVX2(in, out *float32, argmax *int32, planes, h, w, oh, ow int) {
	panic("kernels: no assembly pool on this architecture")
}

func maxPool2x2BackwardAVX2(gradOut *float32, argmax *int32, gradIn *float32, planes, h, w, oh, ow int) {
	panic("kernels: no assembly pool on this architecture")
}

func reluAVX2(in, out *float32, n int) {
	panic("kernels: no assembly ReLU on this architecture")
}

func reluBackwardAVX2(fwdIn, gradOut, gradIn *float32, n int) {
	panic("kernels: no assembly ReLU on this architecture")
}

func addBiasAVX2(dst *float32, n int, b float32) {
	panic("kernels: no assembly bias add on this architecture")
}

func momentumAVX2(param, grad, vel []float32, lr, mu float32) {
	panic("kernels: no assembly update on this architecture")
}

func sgdAVX2(param, grad []float32, lr float32) {
	panic("kernels: no assembly update on this architecture")
}

func copyRunsAVX2(dst, p *float32, base *int, n, runs int, src *[maxRuns]int, mask *[maxRuns][packNR]int32) {
	panic("kernels: no assembly panel writer on this architecture")
}

func col2ImRowsAVX2(dst, src *float32, n, rows, dstStep, srcStep int) {
	panic("kernels: no assembly Col2Im on this architecture")
}
