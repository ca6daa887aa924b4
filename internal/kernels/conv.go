package kernels

import "fmt"

// ConvAlgo selects a 2D convolution implementation, mirroring the algorithm
// choices (im2col, Winograd, direct) that the paper's Level 0 and the
// micro-batching transformation (Fig. 7) reason about.
type ConvAlgo int

const (
	// ConvDirect is the straightforward 7-loop convolution: no workspace,
	// lowest memory, slowest for large channel counts.
	ConvDirect ConvAlgo = iota
	// ConvIm2Col lowers convolution to GEMM by im2col ("implicit
	// precompute GEMM" in the paper's Fig. 7), writing each image's
	// receptive fields straight into the packed GEMM's panels: fast, but
	// the workspace grows with C·KH·KW·OH·OW per image.
	ConvIm2Col
	// ConvWinograd uses the F(2×2, 3×3) Winograd transform: fewer
	// multiplications for 3×3/stride-1 convolutions, moderate workspace.
	ConvWinograd
)

func (a ConvAlgo) String() string {
	switch a {
	case ConvDirect:
		return "direct"
	case ConvIm2Col:
		return "im2col"
	case ConvWinograd:
		return "winograd"
	}
	return "unknown"
}

// ConvShape describes a 2D convolution problem in NCHW layout.
type ConvShape struct {
	N, C, H, W int // input: batch, channels, height, width
	M          int // output channels (number of filters)
	KH, KW     int // kernel size
	StrideH    int
	StrideW    int
	PadH, PadW int
}

// OutDims returns the output spatial dimensions.
func (s ConvShape) OutDims() (oh, ow int) {
	oh = (s.H+2*s.PadH-s.KH)/s.StrideH + 1
	ow = (s.W+2*s.PadW-s.KW)/s.StrideW + 1
	return
}

// InputSize, WeightSize and OutputSize return element counts of the three
// tensors involved.
func (s ConvShape) InputSize() int  { return s.N * s.C * s.H * s.W }
func (s ConvShape) WeightSize() int { return s.M * s.C * s.KH * s.KW }
func (s ConvShape) OutputSize() int {
	oh, ow := s.OutDims()
	return s.N * s.M * oh * ow
}

// FLOPs returns the multiply-add count (×2) of the direct algorithm; the
// standard figure of merit for convolution throughput.
func (s ConvShape) FLOPs() int64 {
	oh, ow := s.OutDims()
	return 2 * int64(s.N) * int64(s.M) * int64(oh) * int64(ow) * int64(s.C) * int64(s.KH) * int64(s.KW)
}

// WorkspaceBytes returns the scratch memory (bytes) algo needs for a single
// invocation at this shape. This drives the device memory model used by the
// ILP micro-batching transformation: as on the paper's GPUs, the im2col
// ("implicit precompute GEMM") workspace lowers the *whole* batch at once
// and therefore grows linearly with N — the property micro-batching
// exploits. (The CPU kernels in this package stream per image; the model
// describes the emulated accelerator, not the host.)
func (s ConvShape) WorkspaceBytes(algo ConvAlgo) int64 {
	oh, ow := s.OutDims()
	n := int64(s.N)
	if n < 1 {
		n = 1
	}
	switch algo {
	case ConvDirect:
		return 0
	case ConvIm2Col:
		return n * int64(s.C*s.KH*s.KW) * int64(oh*ow) * 4
	case ConvWinograd:
		// transformed weights (M×C×16) plus per-image tile buffers
		tiles := ((oh + 1) / 2) * ((ow + 1) / 2)
		return (int64(s.M*s.C)*16 + n*int64(tiles)*int64(s.C+s.M)*16) * 4
	}
	return 0
}

// SupportsWinograd reports whether the shape satisfies the F(2×2,3×3)
// constraints (3×3 kernel, stride 1).
func (s ConvShape) SupportsWinograd() bool {
	return s.KH == 3 && s.KW == 3 && s.StrideH == 1 && s.StrideW == 1
}

func (s ConvShape) String() string {
	return fmt.Sprintf("N%d C%d H%d W%d M%d K%dx%d s%d p%d", s.N, s.C, s.H, s.W, s.M, s.KH, s.KW, s.StrideH, s.PadH)
}

// Conv2D computes out = conv(in, w) + bias with the selected algorithm.
// in is N×C×H×W, w is M×C×KH×KW, bias is length M (may be nil) and out is
// N×M×OH×OW, all row-major.
func Conv2D(algo ConvAlgo, s ConvShape, in, w, bias, out []float32) {
	if len(in) < s.InputSize() || len(w) < s.WeightSize() || len(out) < s.OutputSize() ||
		(bias != nil && len(bias) < s.M) {
		panic("kernels: Conv2D buffer too small")
	}
	if bias != nil {
		bias = bias[:s.M]
	}
	switch algo {
	case ConvDirect:
		conv2DDirect(s, in, w, out)
	case ConvIm2Col:
		// Adds the bias image by image, while each output is in cache.
		conv2DIm2Col(s, in, w, bias, out)
		return
	case ConvWinograd:
		if !s.SupportsWinograd() {
			panic("kernels: Winograd requires 3x3 kernel with stride 1")
		}
		conv2DWinograd(s, in, w, out)
	default:
		panic("kernels: unknown convolution algorithm")
	}
	oh, ow := s.OutDims()
	for n := 0; n < s.N; n++ {
		addBias(bias, out[n*s.M*oh*ow:(n+1)*s.M*oh*ow])
	}
}

// addBias adds bias[m] to plane m of one image's output (len(bias) planes
// of equal size); a nil bias adds nothing.
func addBias(bias, out []float32) {
	if len(bias) == 0 {
		return
	}
	plane := len(out) / len(bias)
	for m, b := range bias {
		dst := out[m*plane : (m+1)*plane]
		if useAVX2 && plane >= 8 {
			addBiasAVX2(&dst[0], plane&^7, b)
			dst = dst[plane&^7:]
		}
		for i := range dst {
			dst[i] += b
		}
	}
}

func conv2DDirect(s ConvShape, in, w, out []float32) {
	oh, ow := s.OutDims()
	for n := 0; n < s.N; n++ {
		inImg := in[n*s.C*s.H*s.W:]
		outImg := out[n*s.M*oh*ow:]
		for m := 0; m < s.M; m++ {
			wm := w[m*s.C*s.KH*s.KW:]
			dst := outImg[m*oh*ow:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					iy0 := oy*s.StrideH - s.PadH
					ix0 := ox*s.StrideW - s.PadW
					for c := 0; c < s.C; c++ {
						inC := inImg[c*s.H*s.W:]
						wc := wm[c*s.KH*s.KW:]
						for ky := 0; ky < s.KH; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= s.H {
								continue
							}
							rowIn := inC[iy*s.W:]
							rowW := wc[ky*s.KW:]
							for kx := 0; kx < s.KW; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= s.W {
									continue
								}
								acc += rowIn[ix] * rowW[kx]
							}
						}
					}
					dst[oy*ow+ox] = acc
				}
			}
		}
	}
}

// oxSpan returns the half-open range [lo, hi) of output columns whose input
// column ix = ox·stride − pad + kx lies inside [0, w). It depends on kx alone,
// so Col2Im computes it once per kernel column and moves whole row
// segments instead of bounds-testing every element; given the rows'
// arguments it is the range of output rows a kernel row reaches.
func oxSpan(ow, w, stride, pad, kx int) (lo, hi int) {
	if d := pad - kx; d > 0 {
		lo = (d + stride - 1) / stride
	}
	if last := w - 1 + pad - kx; last >= 0 {
		hi = min(last/stride+1, ow)
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Col2Im scatters a (C·KH·KW)×(OH·OW) matrix back into a C×H×W image,
// accumulating overlaps; used by convolution backward-data. Contributions
// land in the same (c, ky, kx, oy, ox) order as the per-element form, so the
// sums round identically. Within one tap (c, ky, kx) no two land on the same
// element, so at stride 1 the tap's rows go to the vector unit in one call.
func Col2Im(s ConvShape, col, img []float32) {
	oh, ow := s.OutDims()
	clear(img[:s.C*s.H*s.W])
	step := s.StrideH * s.W // image floats between the rows of consecutive oy
	for c := 0; c < s.C; c++ {
		imC := img[c*s.H*s.W : (c+1)*s.H*s.W]
		for ky := 0; ky < s.KH; ky++ {
			oy0, oy1 := oxSpan(oh, s.H, s.StrideH, s.PadH, ky)
			for kx := 0; kx < s.KW; kx++ {
				rows := col[((c*s.KH+ky)*s.KW+kx)*oh*ow:][:oh*ow]
				lo, hi := oxSpan(ow, s.W, s.StrideW, s.PadW, kx)
				if lo == hi || oy0 == oy1 {
					continue
				}
				// Row oy adds into image row oy·StrideH − PadH + ky from
				// column lo·StrideW − PadW + kx on.
				d := (oy0*s.StrideH-s.PadH+ky)*s.W + lo*s.StrideW - s.PadW + kx
				if s.StrideW == 1 && useAVX2 {
					n := hi - lo
					dst := imC[d : d+(oy1-oy0-1)*step+n]
					src := rows[oy0*ow+lo : (oy1-1)*ow+hi]
					col2ImRowsAVX2(&dst[0], &src[0], n, oy1-oy0, step, ow)
					continue
				}
				for oy := oy0; oy < oy1; oy, d = oy+1, d+step {
					src := rows[oy*ow+lo : oy*ow+hi]
					if s.StrideW == 1 {
						dst := imC[d : d+len(src)]
						for i, v := range src {
							dst[i] += v
						}
						continue
					}
					dst := imC[d:]
					for i, v := range src {
						dst[i*s.StrideW] += v
					}
				}
			}
		}
	}
}

// padImage returns one image with its zero padding written out, as a
// C×HP×WP array (HP = H+2·PadH, WP = W+2·PadW), so that every kernel tap at
// every output position reads inside it and the panel writers need no
// bounds test. An unpadded image is returned as it is; a padded one is built
// in buf (at least paddedLen floats).
func padImage(s ConvShape, img, buf []float32) []float32 {
	if s.PadH == 0 && s.PadW == 0 {
		return img[:s.C*s.H*s.W]
	}
	hp, wp := s.H+2*s.PadH, s.W+2*s.PadW
	p := buf[:s.C*hp*wp]
	clear(p)
	for c := 0; c < s.C; c++ {
		for y := 0; y < s.H; y++ {
			copy(p[(c*hp+y+s.PadH)*wp+s.PadW:][:s.W], img[(c*s.H+y)*s.W:])
		}
	}
	return p
}

// paddedLen is the scratch padImage needs for a shape: none without
// padding.
func paddedLen(s ConvShape) int {
	if s.PadH == 0 && s.PadW == 0 {
		return 0
	}
	return s.C * (s.H + 2*s.PadH) * (s.W + 2*s.PadW)
}

// conv2DIm2Col computes out = W·col per image on the packed GEMM: W is
// packed once for the call and read by every image, and each image is
// lowered straight into B panels, one task per image over the worker pool.
func conv2DIm2Col(s ConvShape, in, w, bias, out []float32) {
	ckk := s.C * s.KH * s.KW
	wPack := scratch.GetBuf(packedLen(s.M, packMR, ckk))
	packAWhole(w, ckk, s.M, ckk, false, wPack)
	if Default.Span(s.N) <= 1 {
		buf := scratch.GetBuf(convPanelsLen(s))
		for n := 0; n < s.N; n++ {
			conv2DImage(s, in, wPack, bias, out, buf, n)
		}
		scratch.PutBuf(buf)
	} else {
		conv2DIm2ColParallel(s, in, wPack, bias, out)
	}
	scratch.PutBuf(wPack)
}

// convPanelsLen is the scratch one forward image needs: its B panels and
// its padded copy.
func convPanelsLen(s ConvShape) int {
	oh, ow := s.OutDims()
	return packedLen(oh*ow, packNR, s.C*s.KH*s.KW) + paddedLen(s)
}

// conv2DImage computes image n's output from the packed filter wPack and
// adds the bias, with buf (convPanelsLen floats) for its panels.
func conv2DImage(s ConvShape, in, wPack, bias, out, buf []float32, n int) {
	oh, ow := s.OutDims()
	spatial := oh * ow
	ckk := s.C * s.KH * s.KW
	panels := packedLen(spatial, packNR, ckk)
	im2colPanels(s, in[n*s.C*s.H*s.W:], buf[:panels], buf[panels:])
	o := out[n*s.M*spatial : (n+1)*s.M*spatial]
	gemmPanels(nil, nil, wPack, buf, o, s.M, ckk, spatial, false, false)
	addBias(bias, o)
}

// conv2DIm2ColParallel runs one task per image over the worker pool; each
// task borrows its panel buffer from the scratch arena for its duration,
// so at most Span(N) buffers are live and none is allocated once the arena
// is warm. It lives apart from conv2DIm2Col so the dispatch closure cannot
// force the serial path's variables onto the heap.
func conv2DIm2ColParallel(s ConvShape, in, wPack, bias, out []float32) {
	Default.ParallelWorker(s.N, func(_, n int) {
		buf := scratch.GetBuf(convPanelsLen(s))
		conv2DImage(s, in, wPack, bias, out, buf, n)
		scratch.PutBuf(buf)
	})
}
