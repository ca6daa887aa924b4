package kernels

// convBwdChunk is the number of consecutive images one backward task owns.
// It is a constant — never derived from the pool size or the machine — so
// the grouping of the dW/dBias sums, and with it every rounding, is the same
// on every host and every run.
const convBwdChunk = 4

// Conv2DBackward computes the gradients of out = conv(x, w) + bias from
// gOut = ∂L/∂out (N×M×OH×OW) by im2col lowering: dX is N×C×H×W, dW is
// M×C×KH×KW and dBias has length M; all three are overwritten, and any of
// them may be nil, in which case that gradient (and the GEMM behind it) is
// not computed.
//
// The batch is split into chunks of convBwdChunk images that run over the
// shared worker pool. A chunk accumulates dW and dBias over its images in
// image order into a partial of its own, and the partials are summed in
// chunk order once all chunks are done, so the result is bitwise independent
// of the pool size and of how chunks were scheduled. Chunk 0's partial is
// dW/dBias itself; the others, like each task's column buffers, are borrowed
// from the scratch arena for the duration of the call.
func Conv2DBackward(s ConvShape, x, w, gOut, dX, dW, dBias []float32) {
	if len(x) < s.InputSize() || len(w) < s.WeightSize() || len(gOut) < s.OutputSize() ||
		(dX != nil && len(dX) < s.InputSize()) || (dW != nil && len(dW) < s.WeightSize()) ||
		(dBias != nil && len(dBias) < s.M) {
		panic("kernels: Conv2DBackward buffer too small")
	}
	if dW != nil {
		dW = dW[:s.WeightSize()]
	}
	if dBias != nil {
		dBias = dBias[:s.M]
	}
	if s.N == 0 {
		clear(dW)
		clear(dBias)
		return
	}
	chunks := (s.N + convBwdChunk - 1) / convBwdChunk
	partW := scratch.GetBuf((chunks - 1) * len(dW))
	partB := scratch.GetBuf((chunks - 1) * len(dBias))
	Default.ParallelWorker(chunks, func(_, ci int) {
		cw, cb := dW, dBias
		if ci > 0 {
			cw = partW[(ci-1)*len(dW) : ci*len(dW)]
			cb = partB[(ci-1)*len(dBias) : ci*len(dBias)]
		}
		conv2DBackwardChunk(s, x, w, gOut, dX, cw, cb, ci*convBwdChunk, min((ci+1)*convBwdChunk, s.N))
	})
	for ci := 1; ci < chunks; ci++ {
		addTo(dW, partW[(ci-1)*len(dW):])
		addTo(dBias, partB[(ci-1)*len(dBias):])
	}
	scratch.PutBuf(partW)
	scratch.PutBuf(partB)
}

// conv2DBackwardChunk handles images [n0, n1): it writes their dX slices and
// leaves the chunk's dW and dBias sums in dW and dBias (zero-length when that
// gradient is not wanted).
func conv2DBackwardChunk(s ConvShape, x, w, gOut, dX, dW, dBias []float32, n0, n1 int) {
	oh, ow := s.OutDims()
	spatial := oh * ow
	ckk := s.C * s.KH * s.KW
	imgLen := s.C * s.H * s.W
	var col, imgW, dcol []float32
	if len(dW) > 0 {
		col = scratch.GetBuf(ckk * spatial)
		imgW = scratch.GetBuf(len(dW))
	}
	if dX != nil {
		dcol = scratch.GetBuf(ckk * spatial)
	}
	for n := n0; n < n1; n++ {
		g := gOut[n*s.M*spatial : (n+1)*s.M*spatial]
		if len(dW) > 0 {
			// dW += gOut (M×OHW) · colᵀ (OHW×CKK)
			Im2Col(s, x[n*imgLen:], col)
			if n == n0 {
				GemmTransB(g, col, dW, s.M, spatial, ckk)
			} else {
				GemmTransB(g, col, imgW, s.M, spatial, ckk)
				addTo(dW, imgW)
			}
		}
		if dX != nil {
			// dcol = Wᵀ (CKK×M) · gOut (M×OHW)
			GemmTransA(w, g, dcol, ckk, s.M, spatial)
			Col2Im(s, dcol, dX[n*imgLen:])
		}
		for m := range dBias {
			var sum float32
			for _, v := range g[m*spatial : (m+1)*spatial] {
				sum += v
			}
			if n == n0 {
				dBias[m] = sum
			} else {
				dBias[m] += sum
			}
		}
	}
	scratch.PutBuf(col)
	scratch.PutBuf(imgW)
	scratch.PutBuf(dcol)
}

// addTo adds src[:len(dst)] to dst element-wise.
func addTo(dst, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
	}
}
