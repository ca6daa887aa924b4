package kernels

// The exact pooling, activation and optimizer-update kernels
// (exact_amd64.s). Each stands in, bit for bit, for the pure-Go loop its
// caller runs when useAVX2 is clear; the caller checks lengths and shapes.

// maxPool2x2AVX2 is maxPool2DUnpadded for 2×2 windows at stride 2 with
// ow ≥ 4 and a non-nil argmax.
//
//go:noescape
func maxPool2x2AVX2(in, out *float32, argmax *int32, planes, h, w, oh, ow int)

// maxPool2x2BackwardAVX2 writes the gradient of maxPool2x2AVX2's pool at
// every input element some window covers.
//
//go:noescape
func maxPool2x2BackwardAVX2(gradOut *float32, argmax *int32, gradIn *float32, planes, h, w, oh, ow int)

// reluAVX2 is ReLU over n elements, n a positive multiple of 8.
//
//go:noescape
func reluAVX2(in, out *float32, n int)

// reluBackwardAVX2 is ReLUBackward over n elements, n a positive multiple
// of 8.
//
//go:noescape
func reluBackwardAVX2(fwdIn, gradOut, gradIn *float32, n int)

// addBiasAVX2 adds b to n elements at dst, n a positive multiple of 8.
//
//go:noescape
func addBiasAVX2(dst *float32, n int, b float32)

// momentumAVX2 is MomentumFused's loop over len(grad) elements; param and
// vel are at least as long.
//
//go:noescape
func momentumAVX2(param, grad, vel []float32, lr, mu float32)

// sgdAVX2 is SGDFused's loop over len(grad) elements; param is at least as
// long.
//
//go:noescape
func sgdAVX2(param, grad []float32, lr float32)

// addScaledAVX2 is AddScaled's loop over len(dst) elements; src is at
// least as long.
//
//go:noescape
func addScaledAVX2(dst, src []float32, scale float32)
