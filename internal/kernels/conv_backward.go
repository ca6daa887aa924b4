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
// dW/dBias itself; the others, like each task's panel buffers, are borrowed
// from the scratch arena for the duration of the call. Wᵀ, the A operand of
// every image's dX product, is packed once per call and only read by the
// tasks.
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
	var wt []float32
	if dX != nil {
		ckk := s.C * s.KH * s.KW
		wt = scratch.GetBuf(packedLen(ckk, packMR, s.M))
		packAWhole(w, ckk, ckk, s.M, true, wt)
	}
	chunks := (s.N + convBwdChunk - 1) / convBwdChunk
	partW := scratch.GetBuf((chunks - 1) * len(dW))
	partB := scratch.GetBuf((chunks - 1) * len(dBias))
	if Default.Span(chunks) <= 1 {
		for ci := 0; ci < chunks; ci++ {
			conv2DBackwardTask(s, x, wt, gOut, dX, dW, dBias, partW, partB, ci)
		}
	} else {
		conv2DBackwardParallel(s, x, wt, gOut, dX, dW, dBias, partW, partB, chunks)
	}
	for ci := 1; ci < chunks; ci++ {
		addTo(dW, partW[(ci-1)*len(dW):])
		addTo(dBias, partB[(ci-1)*len(dBias):])
	}
	scratch.PutBuf(wt)
	scratch.PutBuf(partW)
	scratch.PutBuf(partB)
}

// conv2DBackwardParallel runs one task per chunk over the worker pool. It
// lives apart from Conv2DBackward so the dispatch closure cannot force the
// serial path's variables onto the heap.
func conv2DBackwardParallel(s ConvShape, x, wt, gOut, dX, dW, dBias, partW, partB []float32, chunks int) {
	Default.ParallelWorker(chunks, func(_, ci int) {
		conv2DBackwardTask(s, x, wt, gOut, dX, dW, dBias, partW, partB, ci)
	})
}

// conv2DBackwardTask runs chunk ci into its own dW/dBias partial.
func conv2DBackwardTask(s ConvShape, x, wt, gOut, dX, dW, dBias, partW, partB []float32, ci int) {
	if ci > 0 {
		dW = partW[(ci-1)*len(dW) : ci*len(dW)]
		dBias = partB[(ci-1)*len(dBias) : ci*len(dBias)]
	}
	conv2DBackwardChunk(s, x, wt, gOut, dX, dW, dBias, ci*convBwdChunk, min((ci+1)*convBwdChunk, s.N))
}

// conv2DBackwardChunk handles images [n0, n1): it writes their dX slices and
// leaves the chunk's dW and dBias sums in dW and dBias (zero-length when that
// gradient is not wanted). wt is the packed Wᵀ (nil when dX is). Per image,
// dW's product reads B panels that im2colPanelsT lowered the image into,
// and dX's reads the gradient packed by the GEMM against wt.
func conv2DBackwardChunk(s ConvShape, x, wt, gOut, dX, dW, dBias []float32, n0, n1 int) {
	oh, ow := s.OutDims()
	spatial := oh * ow
	ckk := s.C * s.KH * s.KW
	imgLen := s.C * s.H * s.W
	var colT, pad, imgW, dcol []float32
	if len(dW) > 0 {
		colT = scratch.GetBuf(packedLen(ckk, packNR, spatial))
		pad = scratch.GetBuf(paddedLen(s))
		imgW = scratch.GetBuf(len(dW))
	}
	if dX != nil {
		dcol = scratch.GetBuf(ckk * spatial)
	}
	for n := n0; n < n1; n++ {
		g := gOut[n*s.M*spatial : (n+1)*s.M*spatial]
		if len(dW) > 0 {
			// dW += gOut (M×OHW) · colᵀ (OHW×CKK)
			im2colPanelsT(s, x[n*imgLen:], colT, pad)
			if n == n0 {
				gemmPanels(g, nil, nil, colT, dW, s.M, spatial, ckk, false, false)
			} else {
				gemmPanels(g, nil, nil, colT, imgW, s.M, spatial, ckk, false, false)
				addTo(dW, imgW)
			}
		}
		if dX != nil {
			// dcol = Wᵀ (CKK×M) · gOut (M×OHW)
			gemmPanels(nil, g, wt, nil, dcol, ckk, s.M, spatial, false, false)
			Col2Im(s, dcol, dX[n*imgLen:])
		}
		planeSums(dBias, g, n == n0)
	}
	scratch.PutBuf(colT)
	scratch.PutBuf(pad)
	scratch.PutBuf(imgW)
	scratch.PutBuf(dcol)
}

// planeSums adds to dst[m] (or with set, writes to it) the sum of plane m
// of g, which holds len(dst) planes of equal size. Each plane is summed in
// order from 0, four planes at a time in independent accumulators, so the
// adds of one plane do not wait on each other's. A last group of fewer than
// four sums the last plane again in its spare accumulators and drops them.
func planeSums(dst, g []float32, set bool) {
	if len(dst) == 0 {
		return
	}
	plane := len(g) / len(dst)
	last := len(dst) - 1
	for m := 0; m <= last; m += 4 {
		g0 := g[m*plane:][:plane]
		g1 := g[min(m+1, last)*plane:][:plane]
		g2 := g[min(m+2, last)*plane:][:plane]
		g3 := g[min(m+3, last)*plane:][:plane]
		var s0, s1, s2, s3 float32
		for i, v := range g0 {
			s0 += v
			s1 += g1[i]
			s2 += g2[i]
			s3 += g3[i]
		}
		sums := [4]float32{s0, s1, s2, s3}
		for r, v := range sums[:min(4, len(dst)-m)] {
			if set {
				dst[m+r] = v
			} else {
				dst[m+r] += v
			}
		}
	}
}

// addTo adds src[:len(dst)] to dst element-wise.
func addTo(dst, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
	}
}
