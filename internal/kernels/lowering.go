package kernels

import (
	"math"
	"slices"
	"sync/atomic"
)

// The convolution lowering writes an image's column matrix straight into
// the packed GEMM's B panels. Element (q, j) of the column matrix, tap
// q = (c, ky, kx) at output position j = (oy, ox), is the padded image's
// float at taps[q] + pos[j], with taps[q] = (c·HP+ky)·WP+kx and
// pos[j] = oy·StrideH·WP + ox·StrideW. The forward pack (out = W·col) runs
// depth over the taps and panels over the positions; the weight gradient's
// (dW = g·colᵀ) the other way round. Both offset lists, and the runs each
// panel of sixteen splits into, depend only on the shape, so they are built
// once per shape (convTables) and both writers read them.

// maxRuns is the most runs of consecutive offsets a panel may split into
// and still be written by runs; a panel with more (a strided convolution's)
// is gathered lane by lane.
const maxRuns = 4

// panelRuns is a panel's live lanes as runs of consecutive offsets: run r
// covers the lanes mask[r] sets, and lane l of it reads offset src[r] + l
// past the row's base. n is 0 for a panel of more than maxRuns runs.
type panelRuns struct {
	n    int
	src  [maxRuns]int
	mask [maxRuns][packNR]int32
}

// set splits the first live lanes of off into maximal runs, or leaves r
// empty (n = 0) if there are more than maxRuns.
func (r *panelRuns) set(off []int, live int) {
	for l, o := range off[:live] {
		if l == 0 || o != off[l-1]+1 {
			if r.n == maxRuns {
				*r = panelRuns{}
				return
			}
			r.src[r.n] = o - l
			r.n++
		}
		r.mask[r.n-1][l] = -1
	}
}

// convAxis is one axis of a shape's column matrix: the n offsets into the
// padded image (off, zero-filled to whole panels of packNR) and the runs of
// each panel of them, for when the axis runs across a pack's panels.
type convAxis struct {
	n    int
	off  []int
	runs []panelRuns
}

func newConvAxis(off []int) convAxis {
	a := convAxis{n: len(off), off: make([]int, (len(off)+packNR-1)/packNR*packNR)}
	copy(a.off, off)
	a.runs = make([]panelRuns, len(a.off)/packNR)
	for jp := range a.runs {
		a.runs[jp].set(a.off[jp*packNR:], min(packNR, a.n-jp*packNR))
	}
	return a
}

// convTables is the lowering of one N-free shape: its taps and output
// positions, and the floats in its padded image.
type convTables struct {
	shape     ConvShape // N = 0
	size      int
	taps, pos convAxis
}

// newConvTables builds s's tables. It panics unless every tap at every
// output position lies inside the padded image, so that the run writer
// reads nothing outside it.
func newConvTables(s ConvShape) *convTables {
	s.N = 0
	hp, wp := s.H+2*s.PadH, s.W+2*s.PadW
	oh, ow := s.OutDims()
	var taps, pos []int
	for c := 0; c < s.C; c++ {
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				taps = append(taps, (c*hp+ky)*wp+kx)
			}
		}
	}
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			pos = append(pos, oy*s.StrideH*wp+ox*s.StrideW)
		}
	}
	t := &convTables{shape: s, size: s.C * hp * wp, taps: newConvAxis(taps), pos: newConvAxis(pos)}
	if len(taps) > 0 && len(pos) > 0 &&
		(slices.Min(taps)+slices.Min(pos) < 0 || slices.Max(taps)+slices.Max(pos) >= t.size) {
		panic("kernels: convolution taps read outside the padded image")
	}
	return t
}

// convTablesCap is how many shapes' tables the package keeps. A shape met
// once the cache is full has its tables built for the call and dropped.
const convTablesCap = 128

// tableCache holds tables in the order their shapes were first met. Slots
// fill once and are never replaced, so a lookup that finds its shape takes
// no lock and allocates nothing.
type tableCache [convTablesCap]atomic.Pointer[convTables]

// convTableCache is the package's table cache.
var convTableCache tableCache

// get returns the tables of s with N ignored, building them on a miss and
// keeping them while a slot is free. Concurrent first uses of a shape may
// each build it; the first to claim a slot is kept, and all get equal
// tables.
func (c *tableCache) get(s ConvShape) *convTables {
	s.N = 0
	var built *convTables
	for i := range c {
		t := c[i].Load()
		if t == nil {
			if built == nil {
				built = newConvTables(s)
			}
			if c[i].CompareAndSwap(nil, built) {
				return built
			}
			t = c[i].Load()
		}
		if t.shape == s {
			return t
		}
	}
	if built == nil {
		built = newConvTables(s)
	}
	return built
}

// lower writes one image's forward pack or, with trans, its weight
// gradient's, into dst. The image is first padded (padImage, with pad as
// its scratch) and checked to be the size the tables were built for.
func (t *convTables) lower(img, dst, pad []float32, trans bool) {
	p := padImage(t.shape, img, pad)
	if len(p) != t.size {
		panic("kernels: padded image does not match its convolution tables")
	}
	if trans {
		lowerPanels(dst, p, &t.pos, &t.taps)
	} else {
		lowerPanels(dst, p, &t.taps, &t.pos)
	}
}

// im2colPanels lowers one image straight into the packed GEMM's B operand
// for out = W·col: the whole-operand pack (gemmPanels) of the image's
// (C·KH·KW)×(OH·OW) column matrix, depth over the taps and panels over the
// output positions. The bytes are those packBPanels writes from the column
// matrix. pad is padImage's scratch.
func im2colPanels(s ConvShape, img, dst, pad []float32) {
	convTableCache.get(s).lower(img, dst, pad, false)
}

// im2colPanelsT lowers one image into the B operand of dW = g·colᵀ: the
// whole-operand pack of the transposed column matrix, depth over the
// output positions and panels over the taps. The bytes are those
// packBPanels writes from the column matrix read transposed.
func im2colPanelsT(s ConvShape, img, dst, pad []float32) {
	convTableCache.get(s).lower(img, dst, pad, true)
}

// lowerPanels writes the whole-operand B pack, depth blocks of packKC in
// order and panels of packNR columns in each, of the rows.n × cols.n matrix
// whose element (i, j) is p[rows.off[i] + cols.off[j]]. One call per panel
// and depth block writes its rows: on AVX2 by runs (copyRunsAVX2) where the
// panel has at most maxRuns, otherwise lane by lane (gatherRows). Dead
// lanes of a ragged panel and its depth padding get +0, as in packBPanels.
func lowerPanels(dst, p []float32, rows, cols *convAxis) {
	n16 := len(cols.off)
	for pc := 0; pc < rows.n; pc += packKC {
		kcb := min(packKC, rows.n-pc)
		ka := kcAligned(kcb)
		base := rows.off[pc : pc+kcb]
		for jp := range cols.runs {
			j0 := jp * packNR
			panel := dst[n16*pc+j0*ka:][:ka*packNR]
			if r := &cols.runs[jp]; useAVX2 && r.n > 0 {
				copyRunsAVX2(&panel[0], &p[0], &base[0], kcb, r.n, &r.src, &r.mask)
			} else {
				gatherRows(panel, p, base, (*[packNR]int)(cols.off[j0:]), min(packNR, cols.n-j0))
			}
			clear(panel[kcb*packNR:])
		}
	}
}

// gatherRows writes len(base) consecutive depth rows of a packed panel into
// dst: lane l of row i is p[base[i] + off[l]]. A ragged panel (live lanes
// fewer than packNR) writes +0 in the lanes past its edge, by masking the
// bits of a valid read (their offsets are 0), where packBPanels writes its
// zero fill. Each row is unrolled and the loop is a function of its own:
// inlined into a writer the row counter spills, and reloading it every
// element serialises the row behind a store-to-load forward.
func gatherRows(dst, p []float32, base []int, off *[packNR]int, live int) {
	if live < packNR {
		var k [packNR]uint32
		for l := range k[:live] {
			k[l] = ^uint32(0)
		}
		for i, b := range base {
			d := (*[packNR]float32)(dst[i*packNR:])
			q := p[b:]
			d[0], d[1], d[2], d[3] = keep(q[off[0]], k[0]), keep(q[off[1]], k[1]), keep(q[off[2]], k[2]), keep(q[off[3]], k[3])
			d[4], d[5], d[6], d[7] = keep(q[off[4]], k[4]), keep(q[off[5]], k[5]), keep(q[off[6]], k[6]), keep(q[off[7]], k[7])
			d[8], d[9], d[10], d[11] = keep(q[off[8]], k[8]), keep(q[off[9]], k[9]), keep(q[off[10]], k[10]), keep(q[off[11]], k[11])
			d[12], d[13], d[14], d[15] = keep(q[off[12]], k[12]), keep(q[off[13]], k[13]), keep(q[off[14]], k[14]), keep(q[off[15]], k[15])
		}
		return
	}
	for i, b := range base {
		d := (*[packNR]float32)(dst[i*packNR:])
		q := p[b:]
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
