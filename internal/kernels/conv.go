package kernels

import (
	"fmt"
	"math"
)

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
func padImage(s ConvShape, img, buf []float32) (p []float32, hp, wp int) {
	if s.PadH == 0 && s.PadW == 0 {
		return img[:s.C*s.H*s.W], s.H, s.W
	}
	hp, wp = s.H+2*s.PadH, s.W+2*s.PadW
	p = buf[:s.C*hp*wp]
	clear(p)
	for c := 0; c < s.C; c++ {
		for y := 0; y < s.H; y++ {
			copy(p[(c*hp+y+s.PadH)*wp+s.PadW:][:s.W], img[(c*s.H+y)*s.W:])
		}
	}
	return p, hp, wp
}

// paddedLen is the scratch padImage needs for a shape: none without
// padding.
func paddedLen(s ConvShape) int {
	if s.PadH == 0 && s.PadW == 0 {
		return 0
	}
	return s.C * (s.H + 2*s.PadH) * (s.W + 2*s.PadW)
}

// maxRuns is the most runs of consecutive offsets a panel may split into
// and still be written by runs; a panel with more (a strided convolution's)
// is gathered lane by lane.
const maxRuns = 4

// panelRuns is a packed panel's live lanes as runs of consecutive offsets
// into the padded image, built once per panel for copyRunsAVX2: run r covers
// the lanes mask[r] sets, and lane l of it reads offset src[r] + l. It lives
// on the writer's stack.
type panelRuns struct {
	n    int
	src  [maxRuns]int
	mask [maxRuns][packNR]int32
}

// set splits the first live lanes of off into maximal runs and reports
// whether there are at most maxRuns. Each depth row adds a base of at most
// reach to the offsets; set panics unless every live read of every row then
// lies inside a padded image of size floats, so that the rows' assembly
// reads nothing outside it.
func (r *panelRuns) set(off *[packNR]int, live, reach, size int) bool {
	r.n, r.mask = 0, [maxRuns][packNR]int32{}
	lo, hi := off[0], off[0]
	for l, o := range off[:live] {
		if l == 0 || o != off[l-1]+1 {
			if r.n == maxRuns {
				return false
			}
			r.src[r.n] = o - l
			r.n++
		}
		r.mask[r.n-1][l] = -1
		lo, hi = min(lo, o), max(hi, o)
	}
	if lo < 0 || hi+reach >= size {
		panic("kernels: convolution panel reads outside its padded image")
	}
	return true
}

// copy is gatherRows over the runs: n depth rows into dst, lane l of row i
// from p[base + i·step + off[l]] and +0 past the live lanes.
func (r *panelRuns) copy(dst, p []float32, base, step, n int) {
	copyRunsAVX2(&dst[:n*packNR][0], &p[base], step, n, &r.src, &r.mask, r.n)
}

// gatherRows writes n consecutive depth rows of a packed panel into dst:
// lane l of row i is p[base + i·step + off[l]]. A ragged panel (live lanes
// fewer than packNR) writes +0 in the lanes past its edge, by masking the
// bits of a valid read, where packBPanels writes its zero fill. Each row is
// unrolled and the loop is a function of its own: inlined into a writer the
// row counter spills, and reloading it every element serialises the row
// behind a store-to-load forward.
func gatherRows(dst, p []float32, base, step, n int, off *[packNR]int, live int) {
	if live < packNR {
		var k [packNR]uint32
		for l := range k[:live] {
			k[l] = ^uint32(0)
		}
		for i := 0; i < n; i++ {
			d := (*[packNR]float32)(dst[i*packNR:])
			q := p[base+i*step:]
			d[0], d[1], d[2], d[3] = keep(q[off[0]], k[0]), keep(q[off[1]], k[1]), keep(q[off[2]], k[2]), keep(q[off[3]], k[3])
			d[4], d[5], d[6], d[7] = keep(q[off[4]], k[4]), keep(q[off[5]], k[5]), keep(q[off[6]], k[6]), keep(q[off[7]], k[7])
			d[8], d[9], d[10], d[11] = keep(q[off[8]], k[8]), keep(q[off[9]], k[9]), keep(q[off[10]], k[10]), keep(q[off[11]], k[11])
			d[12], d[13], d[14], d[15] = keep(q[off[12]], k[12]), keep(q[off[13]], k[13]), keep(q[off[14]], k[14]), keep(q[off[15]], k[15])
		}
		return
	}
	for i := 0; i < n; i++ {
		d := (*[packNR]float32)(dst[i*packNR:])
		q := p[base+i*step:]
		d[0], d[1], d[2], d[3] = q[off[0]], q[off[1]], q[off[2]], q[off[3]]
		d[4], d[5], d[6], d[7] = q[off[4]], q[off[5]], q[off[6]], q[off[7]]
		d[8], d[9], d[10], d[11] = q[off[8]], q[off[9]], q[off[10]], q[off[11]]
		d[12], d[13], d[14], d[15] = q[off[12]], q[off[13]], q[off[14]], q[off[15]]
	}
}

// keep returns v where mask is all ones and +0 where it is zero.
func keep(v float32, mask uint32) float32 {
	return math.Float32frombits(math.Float32bits(v) & mask)
}

// copyRows is gatherRows at step 1 for a panel whose sixteen lanes are side
// by side in the image: each row moves as one vector.
func copyRows(dst, p []float32, base, n int) {
	for i := 0; i < n; i++ {
		*(*[packNR]float32)(dst[i*packNR:]) = *(*[packNR]float32)(p[base+i:])
	}
}

// clearDepthPad zeroes the depth padding of one panel, the panel starting at
// column j0, in every depth block of a whole-operand B pack that is n16
// columns wide and k deep.
func clearDepthPad(dst []float32, n16, k, j0 int) {
	for pc := 0; pc < k; pc += packKC {
		kcb := min(packKC, k-pc)
		ka := kcAligned(kcb)
		clear(dst[n16*pc+j0*ka+kcb*packNR : n16*pc+(j0+packNR)*ka])
	}
}

// im2colPanels lowers one image straight into the packed GEMM's B operand
// for out = W·col: the whole-operand pack (gemmPanels) of the image's
// (C·KH·KW)×(OH·OW) column matrix, so depth runs over the kernel taps in
// blocks of packKC and the columns over the output positions in panels of
// packNR, both zero-padded. The column matrix is never built. A panel is
// written front to back, one depth row (one tap) at a time, by gathering
// the tap's pixel at each of the panel's sixteen output positions from the
// padded image. On AVX2 a panel whose positions fall in at most maxRuns
// runs along image rows moves each run as one masked vector (panelRuns);
// otherwise sixteen positions side by side in one image row move as one
// vector, and any others lane by lane. The bytes are those packBPanels
// writes from the column matrix. pad is padImage's scratch.
func im2colPanels(s ConvShape, img, dst, pad []float32) {
	p, hp, wp := padImage(s, img, pad)
	oh, ow := s.OutDims()
	spatial := oh * ow
	n16 := (spatial + packNR - 1) / packNR * packNR
	ckk := s.C * s.KH * s.KW
	reach := ((s.C-1)*hp+s.KH-1)*wp + s.KW - 1 // the last tap's base
	var off [packNR]int
	var runs panelRuns
	oy, ox := 0, 0
	for j0 := 0; j0 < spatial; j0 += packNR {
		live := min(packNR, spatial-j0)
		run := live == packNR
		for l := range off {
			off[l] = 0 // lanes past live read the tap's own pixel and are masked
			if l < live {
				off[l] = oy*s.StrideH*wp + ox*s.StrideW
				run = run && off[l] == off[0]+l
				if ox++; ox == ow {
					ox, oy = 0, oy+1
				}
			}
		}
		byRuns := useAVX2 && runs.set(&off, live, reach, len(p))
		// Taps (c, ky, kx) come KW at a time, side by side in the padded
		// image; a run of them may straddle a depth block.
		q := 0
		for c := 0; c < s.C; c++ {
			for ky := 0; ky < s.KH; ky++ {
				t := (c*hp + ky) * wp
				for kx := 0; kx < s.KW; {
					pc := q - q%packKC
					ka := kcAligned(min(packKC, ckk-pc))
					n := min(s.KW-kx, pc+packKC-q)
					rows := dst[n16*pc+j0*ka+(q-pc)*packNR:]
					switch {
					case byRuns:
						runs.copy(rows, p, t+kx, 1, n)
					case run:
						copyRows(rows, p, t+kx+off[0], n)
					default:
						gatherRows(rows, p, t+kx, 1, n, &off, live)
					}
					kx, q = kx+n, q+n
				}
			}
		}
		clearDepthPad(dst, n16, ckk, j0)
	}
}

// im2colPanelsT lowers one image into the B operand of dW = g·colᵀ: the
// whole-operand pack of the transposed column matrix, depth over the OH·OW
// output positions in blocks of packKC and columns over the C·KH·KW kernel
// taps. A panel holds sixteen taps and is written front to back; each depth
// row gathers their pixels at one output position from the padded image, by
// runs of KW side by side where the panel has at most maxRuns of them.
// The bytes are those packBPanels writes from the column matrix read
// transposed. pad is padImage's scratch.
func im2colPanelsT(s ConvShape, img, dst, pad []float32) {
	p, hp, wp := padImage(s, img, pad)
	oh, ow := s.OutDims()
	spatial := oh * ow
	ckk := s.C * s.KH * s.KW
	n16 := (ckk + packNR - 1) / packNR * packNR
	reach := (oh-1)*s.StrideH*wp + (ow-1)*s.StrideW // the last position's base
	var off [packNR]int
	var runs panelRuns
	for q0 := 0; q0 < ckk; q0 += packNR {
		live := min(packNR, ckk-q0)
		for l := range off {
			off[l] = 0 // lanes past live read the position's own pixel and are masked
			if q := q0 + l; l < live {
				c, ky, kx := q/(s.KH*s.KW), q/s.KW%s.KH, q%s.KW
				off[l] = (c*hp+ky)*wp + kx
			}
		}
		byRuns := useAVX2 && runs.set(&off, live, reach, len(p))
		// Output positions come a row of OW at a time, StrideW apart in
		// the padded image; a row may straddle a depth block.
		for j := 0; j < spatial; {
			oy, ox := j/ow, j%ow
			pc := j - j%packKC
			ka := kcAligned(min(packKC, spatial-pc))
			n := min(ow-ox, pc+packKC-j)
			rows, base := dst[n16*pc+q0*ka+(j-pc)*packNR:], oy*s.StrideH*wp+ox*s.StrideW
			if byRuns {
				runs.copy(rows, p, base, s.StrideW, n)
			} else {
				gatherRows(rows, p, base, s.StrideW, n, &off, live)
			}
			j += n
		}
		clearDepthPad(dst, n16, spatial, q0)
	}
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
