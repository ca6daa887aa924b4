package kernels

// BLIS-style packed GEMM. The operand matrices are repacked into
// cache-resident panels before any arithmetic happens:
//
//   - A is packed into row panels of packMR rows, stored k-major: panel ip
//     holds rows [ip·MR, ip·MR+MR) with layout dst[p*MR+r] = A[i0+ip*MR+r, p],
//     so the micro-kernel reads one contiguous MR-vector per k step.
//   - B is packed into column panels of packNR columns, stored k-major:
//     dst[p*NR+j] = B[p, j0+jp*NR+j], one contiguous NR-vector per k step.
//
// Because packing re-gathers elements anyway, transposed operands cost
// nothing extra: packA/packB just swap their index arithmetic, which is why
// GemmTransA / GemmTransB route here and stop paying for strided access.
// Edge panels are zero-padded in both the row/column and depth directions,
// so the micro-kernel never branches on bounds.
//
// Packing B pays when many A blocks share the copy. When A fits one macro
// block (m ≤ packMC) and B is stored k×n, nothing shares it: the assembly
// tile then reads the full panels where B is stored, 16 adjacent floats
// per depth step at B's row stride, over the block's exact depth
// (readsBInPlace). Only a ragged last panel is still packed, so no tile
// reads past B's end. The bits are the packed route's: a padded depth step
// adds the product +0·+0 = +0 to an accumulator that started at +0, and a
// round-to-nearest sum that starts at +0 is never −0, so the step changes
// nothing.
//
// The micro-tile is 4×16 with the k loop unrolled ×4. On amd64 hosts with
// AVX2 it is the assembly kernel in gemm_amd64.s: eight YMM accumulators,
// two B vectors and one broadcast A value per row and depth step, multiplied
// and then added — no fused multiply-add, so each C element sees the same
// rounded products and sums in the same order as a scalar loop, and the
// output is bit for bit what the scalar 2×4 tile it replaced produced.
// Where the CPU also has AVX-512, two full adjacent B panels are swept as
// one 4×32 tile (kernel4x32AVX512: eight ZMM accumulators, multiplied and
// then added in the same order), which gives the same bits again.
// Everywhere else the pure-Go fallback sweeps that scalar 2×4 tile over the
// eight sub-tiles of the 4×16 panels. See docs/kernels.md for the
// measurements and re-tuning guidance.
const (
	packMR = 4   // micro-tile rows (accumulator rows)
	packNR = 16  // micro-tile cols (accumulator cols)
	packKU = 4   // k-loop unroll; packed depth is padded to a multiple
	packMC = 128 // rows of A packed per block (block fits L2)
	packKC = 256 // depth of one packed block (panels stay L1-resident)
	packNC = 2048
)

// kcAligned rounds a depth up to the micro-kernel's unroll factor.
func kcAligned(kc int) int { return (kc + packKU - 1) / packKU * packKU }

// packAPanels packs the mc×kc block of A starting at logical (i0, p0) into
// MR-row panels of padded depth kcAligned(kc). A is m×k row-major, or its
// k×m transpose when trans is set; lda is the stored row stride. Rows past
// mc and depth past kc are zero-filled. Every panel moves one whole
// MR-vector per depth step in either layout: four adjacent floats of a
// transposed A, or the four rows of an untransposed A read side by side (a
// convolution's weight gradient packs its output gradient, M rows by
// OH·OW deep, once per image). A ragged last panel of 1–3 rows writes +0
// in its dead lanes within the same vector: an untransposed A reads them
// from zeroDepth, a transposed one masks the bits of a live row's read.
func packAPanels(a []float32, lda, i0, p0, mc, kc int, trans bool, dst []float32) {
	ka := kcAligned(kc)
	panels := (mc + packMR - 1) / packMR
	for ip := 0; ip < panels; ip++ {
		rows := min(packMR, mc-ip*packMR)
		panel := dst[ip*packMR*ka : (ip+1)*packMR*ka]
		d := panel[:packMR*kc]
		switch {
		case rows == packMR && trans:
			// A stored k×m: the MR logical rows of one depth step are
			// adjacent in memory and already in panel order.
			off := p0*lda + i0 + ip*packMR
			for ; len(d) >= packMR; d = d[packMR:] {
				*(*[packMR]float32)(d) = *(*[packMR]float32)(a[off:])
				off += lda
			}
		case trans:
			packColsRagged(d, a[p0*lda+i0+ip*packMR:], lda, rows)
		default:
			// A stored m×k: read the MR rows side by side, the dead ones
			// from zeroDepth.
			var src [packMR][]float32
			for r := range src {
				src[r] = zeroDepth[:kc]
				if r < rows {
					src[r] = a[(i0+ip*packMR+r)*lda+p0:][:kc]
				}
			}
			packRowsSideBySide(d, src[0], src[1], src[2], src[3])
		}
		for i := kc * packMR; i < ka*packMR; i++ {
			panel[i] = 0
		}
	}
}

// zeroDepth is a depth block of zeros: the dead rows of a ragged A panel.
var zeroDepth [packKC]float32

// packRowsSideBySide writes one MR-vector per depth step from four rows of
// equal length: d[4p+r] = s_r[p]. On AVX2 eight steps at a time are an
// in-register 4×8 transpose (gemm_amd64.s), and the last len mod 8 steps
// take the scalar loop. Its loop is a function of its own (inlined into
// packAPanels the depth counter spilled, and each step waited on its
// reload).
//
//go:noinline
func packRowsSideBySide(d, s0, s1, s2, s3 []float32) {
	s1, s2, s3 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)]
	d = d[:packMR*len(s0)]
	done := 0
	if useAVX2 && len(s0) >= 8 {
		done = len(s0) &^ 7
		packRows4AVX2(&d[0], &s0[0], &s1[0], &s2[0], &s3[0], done)
	}
	for p := done; p < len(s0); p++ {
		q := (*[packMR]float32)(d[packMR*p:])
		q[0], q[1], q[2], q[3] = s0[p], s1[p], s2[p], s3[p]
	}
}

// packColsRagged writes len(d)/MR depth steps of a ragged panel of a
// transposed A: step p holds a[p·lda : p·lda+rows] and +0 past it, lane r
// reading column min(r, rows−1) and keeping it only if live.
func packColsRagged(d, a []float32, lda, rows int) {
	r1, r2, r3 := min(1, rows-1), min(2, rows-1), min(3, rows-1)
	var k [packMR]uint32
	for r := range k[:rows] {
		k[r] = ^uint32(0)
	}
	for off := 0; len(d) >= packMR; d, off = d[packMR:], off+lda {
		q := a[off : off+rows]
		*(*[packMR]float32)(d) = [packMR]float32{q[0], keep(q[r1], k[1]), keep(q[r2], k[2]), keep(q[r3], k[3])}
	}
}

// packBPanels packs the kc×nc block of B starting at logical (p0, j0) into
// NR-column panels of padded depth kcAligned(kc). B is k×n row-major, or
// its n×k transpose when trans is set; ldb is the stored row stride.
// Columns past nc and depth past kc are zero-filled. A full panel moves one
// whole NR-vector per depth step in either layout (about a third of the
// element-at-a-time cost); the ragged last panel keeps the general loop. On
// AVX2 a full transposed panel is written four depth steps at a time by
// in-register transposes of its 16 rows (gemm_amd64.s), and the last kc
// mod 4 steps take the scalar loop.
func packBPanels(b []float32, ldb, p0, j0, kc, nc int, trans bool, dst []float32) {
	ka := kcAligned(kc)
	panels := (nc + packNR - 1) / packNR
	for jp := 0; jp < panels; jp++ {
		cols := min(packNR, nc-jp*packNR)
		panel := dst[jp*packNR*ka : (jp+1)*packNR*ka]
		switch {
		case cols == packNR && trans:
			// B stored n×k: the NR logical columns are NR contiguous
			// rows; read them side by side, write one vector per step.
			j := j0 + jp*packNR
			s0 := b[j*ldb+p0:][:kc]
			s1 := b[(j+1)*ldb+p0:][:kc]
			s2 := b[(j+2)*ldb+p0:][:kc]
			s3 := b[(j+3)*ldb+p0:][:kc]
			s4 := b[(j+4)*ldb+p0:][:kc]
			s5 := b[(j+5)*ldb+p0:][:kc]
			s6 := b[(j+6)*ldb+p0:][:kc]
			s7 := b[(j+7)*ldb+p0:][:kc]
			s8 := b[(j+8)*ldb+p0:][:kc]
			s9 := b[(j+9)*ldb+p0:][:kc]
			s10 := b[(j+10)*ldb+p0:][:kc]
			s11 := b[(j+11)*ldb+p0:][:kc]
			s12 := b[(j+12)*ldb+p0:][:kc]
			s13 := b[(j+13)*ldb+p0:][:kc]
			s14 := b[(j+14)*ldb+p0:][:kc]
			s15 := b[(j+15)*ldb+p0:][:kc]
			d := panel[:packNR*kc]
			done := 0
			if useAVX2 && kc >= 4 {
				done = kc &^ 3
				packBTransAVX2(&d[0], &s0[0], ldb, done)
			}
			for p := done; p < kc; p++ {
				q := (*[packNR]float32)(d[packNR*p:])
				q[0], q[1], q[2], q[3] = s0[p], s1[p], s2[p], s3[p]
				q[4], q[5], q[6], q[7] = s4[p], s5[p], s6[p], s7[p]
				q[8], q[9], q[10], q[11] = s8[p], s9[p], s10[p], s11[p]
				q[12], q[13], q[14], q[15] = s12[p], s13[p], s14[p], s15[p]
			}
		case cols == packNR:
			off := p0*ldb + j0 + jp*packNR
			for d := panel[:packNR*kc]; len(d) >= packNR; d = d[packNR:] {
				*(*[packNR]float32)(d) = *(*[packNR]float32)(b[off:])
				off += ldb
			}
		case trans:
			// Read each logical column (contiguous in p) and scatter
			// with stride NR.
			for j := 0; j < cols; j++ {
				src := b[(j0+jp*packNR+j)*ldb+p0:]
				for p := 0; p < kc; p++ {
					panel[p*packNR+j] = src[p]
				}
			}
		default:
			for p := 0; p < kc; p++ {
				src := b[(p0+p)*ldb+j0+jp*packNR:]
				d := panel[p*packNR : p*packNR+packNR]
				for j := 0; j < cols; j++ {
					d[j] = src[j]
				}
			}
		}
		if cols < packNR {
			for p := 0; p < kc; p++ {
				d := panel[p*packNR : p*packNR+packNR]
				for j := cols; j < packNR; j++ {
					d[j] = 0
				}
			}
		}
		for i := kc * packNR; i < ka*packNR; i++ {
			panel[i] = 0
		}
	}
}

// microKernel adds the packMR×packNR tile Aᵖ·B, summed over kd depth
// steps, into C, or stores it there when add is false (the first depth
// block): C is then written, never read. pa is a packed A panel. pb holds
// the tile's 16 B columns for each depth step, ldb floats apart: a packed
// panel (ldb = packNR, kd the padded depth) or, on the AVX2 path only, B
// where it is stored (its row stride, kd the exact depth). dst points at
// C[i, j] with row stride ldc; mr×nr is the live (unpadded) extent of the
// tile. With AVX2 the assembly kernel does the arithmetic: a full tile
// goes straight to C, an edge tile to a stack tile whose live extent is
// then added to or stored in C. Either way every C element gets
// 0 + Σ rounded products in depth order, then C + sum or the sum, the same
// bits as the pure-Go tile; and storing the sum gives the bits of adding
// it to a cleared C, since a sum that starts at +0 is never −0.
func microKernel(pa, pb []float32, kd, ldb int, dst []float32, ldc, mr, nr int, add bool) {
	if !useAVX2 {
		microKernelGo(pa, pb, kd, dst, ldc, mr, nr, add)
		return
	}
	pa = pa[:packMR*kd]
	pb = pb[:(kd-1)*ldb+packNR]
	if mr == packMR && nr == packNR {
		_ = dst[(packMR-1)*ldc+packNR-1]
		kernel4x16AVX2(&pa[0], &pb[0], kd, ldb, &dst[0], ldc, add)
		return
	}
	var tile [packMR * packNR]float32
	kernel4x16AVX2(&pa[0], &pb[0], kd, ldb, &tile[0], packNR, false)
	for r := 0; r < mr; r++ {
		row := dst[r*ldc : r*ldc+nr]
		for j, v := range tile[r*packNR : r*packNR+nr] {
			if add {
				v = row[j] + v
			}
			row[j] = v
		}
	}
}

// microKernelPair is microKernel over two full panels side by side, the
// second off floats after the first, on the AVX-512 path: four rows are
// one 4×32 tile, which gives the bits of a 4×16 tile on each panel, and
// fewer rows take the 4×16 tile on each panel.
func microKernelPair(pa, pb []float32, kd, ldb, off int, dst []float32, ldc, mr int, add bool) {
	if mr < packMR {
		microKernel(pa, pb, kd, ldb, dst, ldc, mr, packNR, add)
		microKernel(pa, pb[off:], kd, ldb, dst[packNR:], ldc, mr, packNR, add)
		return
	}
	pa = pa[:packMR*kd]
	pb = pb[:off+(kd-1)*ldb+packNR]
	_ = dst[(packMR-1)*ldc+2*packNR-1]
	kernel4x32AVX512(&pa[0], &pb[0], kd, ldb, off, &dst[0], ldc, add)
}

// microKernelGo is the portable micro-kernel: a 2×4 scalar register tile
// swept over the live 2×4 sub-tiles of the packed 4×16 panels. gc gives
// pure Go 16 scalar FP registers and no vectorization, and eight
// accumulators plus the a/b temporaries is the largest tile whose
// accumulators stay in registers (4×4 and 4×8 spill them every step).
func microKernelGo(pa, pb []float32, ka int, dst []float32, ldc, mr, nr int, add bool) {
	for r := 0; r < mr; r += 2 {
		for j := 0; j < nr; j += 4 {
			tile2x4(pa[r:], pb[j:], ka, dst[r*ldc+j:], ldc, min(2, mr-r), min(4, nr-j), add)
		}
	}
}

// tile2x4 accumulates rows 0–1 × columns 0–3 of a packed tile: pa and pb
// start at the sub-tile's first row and column inside 4×16 panels. The 8
// accumulators stay in registers across the whole k loop, unrolled ×4, and
// the constant-length re-slicing makes every load bounds-check-free. The
// float32 conversions pin each product's rounding, so no target may fuse
// a multiply-add and move bits away from the assembly kernel. The sums are
// added to C, or stored in it when add is false.
func tile2x4(pa, pb []float32, ka int, dst []float32, ldc, mr, nr int, add bool) {
	const la = packMR*(packKU-1) + 2 // last a read in an unrolled step, +1
	const lb = packNR*(packKU-1) + 4
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	for p := 0; p < ka; p += packKU {
		a := pa[p*packMR : p*packMR+la : p*packMR+la]
		b := pb[p*packNR : p*packNR+lb : p*packNR+lb]
		a0, a1 := a[0], a[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += float32(a0 * b0)
		c01 += float32(a0 * b1)
		c02 += float32(a0 * b2)
		c03 += float32(a0 * b3)
		c10 += float32(a1 * b0)
		c11 += float32(a1 * b1)
		c12 += float32(a1 * b2)
		c13 += float32(a1 * b3)
		a2, a3 := a[packMR], a[packMR+1]
		b4, b5, b6, b7 := b[packNR], b[packNR+1], b[packNR+2], b[packNR+3]
		c00 += float32(a2 * b4)
		c01 += float32(a2 * b5)
		c02 += float32(a2 * b6)
		c03 += float32(a2 * b7)
		c10 += float32(a3 * b4)
		c11 += float32(a3 * b5)
		c12 += float32(a3 * b6)
		c13 += float32(a3 * b7)
		a4, a5 := a[2*packMR], a[2*packMR+1]
		b8, b9, b10, b11 := b[2*packNR], b[2*packNR+1], b[2*packNR+2], b[2*packNR+3]
		c00 += float32(a4 * b8)
		c01 += float32(a4 * b9)
		c02 += float32(a4 * b10)
		c03 += float32(a4 * b11)
		c10 += float32(a5 * b8)
		c11 += float32(a5 * b9)
		c12 += float32(a5 * b10)
		c13 += float32(a5 * b11)
		a6, a7 := a[3*packMR], a[3*packMR+1]
		b12, b13, b14, b15 := b[3*packNR], b[3*packNR+1], b[3*packNR+2], b[3*packNR+3]
		c00 += float32(a6 * b12)
		c01 += float32(a6 * b13)
		c02 += float32(a6 * b14)
		c03 += float32(a6 * b15)
		c10 += float32(a7 * b12)
		c11 += float32(a7 * b13)
		c12 += float32(a7 * b14)
		c13 += float32(a7 * b15)
	}
	if mr == 2 && nr == 4 {
		r0 := dst[0:4:4]
		r1 := dst[ldc : ldc+4 : ldc+4]
		if add {
			c00, c01, c02, c03 = r0[0]+c00, r0[1]+c01, r0[2]+c02, r0[3]+c03
			c10, c11, c12, c13 = r1[0]+c10, r1[1]+c11, r1[2]+c12, r1[3]+c13
		}
		r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
		r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
		return
	}
	// Edge tile: stage the accumulators and write back the live extent only.
	acc := [2][4]float32{{c00, c01, c02, c03}, {c10, c11, c12, c13}}
	for r := 0; r < mr; r++ {
		row := dst[r*ldc:]
		for j, v := range acc[r][:nr] {
			if add {
				v = row[j] + v
			}
			row[j] = v
		}
	}
}

// packedDepth is the depth of a whole-operand pack of depth k: every
// packKC block but the last is full, and the last is padded to packKU.
func packedDepth(k int) int { return k - k%packKC + kcAligned(k%packKC) }

// packedLen is the length of a whole-operand pack of depth k: an A of n
// rows (tile packMR) or a B of n columns (tile packNR).
func packedLen(n, tile, k int) int {
	return (n + tile - 1) / tile * tile * packedDepth(k)
}

// packAWhole packs all of op(A) (m×k; stored k×m when trans, row stride lda)
// as a whole-operand pack for gemmPanels: its depth blocks of packKC in
// order, block pc starting at m₄·pc (m₄ is m rounded up to packMR) and
// holding the MR-row panels of every row, exactly what packAPanels gives the
// loop nest block by block. A caller that multiplies one A by many Bs packs
// it once.
func packAWhole(a []float32, lda, m, k int, trans bool, dst []float32) {
	m4 := (m + packMR - 1) / packMR * packMR
	for pc := 0; pc < k; pc += packKC {
		packAPanels(a, lda, 0, pc, m, min(packKC, k-pc), trans, dst[m4*pc:])
	}
}

// gemmPacked computes C = op(A)·op(B) with panel packing and the
// register-tiled micro-kernel. A is m×k (or stored k×m when transA), B is
// k×n (or stored n×k when transB), C is m×n and is overwritten.
func gemmPacked(a, b, c []float32, m, k, n int, transA, transB bool) {
	gemmPanels(a, b, nil, nil, c, m, k, n, transA, transB)
}

// readsBInPlace is the packed kernel's rule for B: a B stored k×n that the
// caller has not pre-packed is read where it is stored when one macro block
// of A covers every row (m ≤ packMC), because each packed panel would then
// be read by at most packMC/packMR A panels, once each. A transposed B, a
// pre-packed one, and any B that several A blocks share are packed. So is
// every B on the pure-Go path: its 2×4 tile sweeps a panel eight times per
// A panel, and at B's own row stride it ran 1.2–1.8× slower than with the
// pack (docs/kernels.md).
func readsBInPlace(m int, transB, prePacked bool) bool {
	return useAVX2 && !transB && !prePacked && m <= packMC
}

// bBlock is one KC×NC block of B as the micro-kernel reads it. The first
// full panels (none unless B is read in place) are B itself from the
// block's first element, ldb floats a row, over the block's exact depth;
// the rest are NR-column panels of padded depth in packed, as packBPanels
// lays them out.
type bBlock struct {
	b      []float32
	ldb    int
	full   int
	packed []float32
}

// panel returns panel jp of a block of depth kcb: its first row, its
// depth in steps and its row stride. The slice runs on past the panel.
func (bb bBlock) panel(jp, kcb int) (pb []float32, kd, ldb int) {
	if jp < bb.full {
		return bb.b[jp*packNR:], kcb, bb.ldb
	}
	ka := kcAligned(kcb)
	return bb.packed[(jp-bb.full)*packNR*ka:], ka, packNR
}

// pair is panel for the first of panels jp and jp+1 of a block of ncb
// columns, with off, how many floats after a row of the first panel the
// same row of the second starts: packNR in place, packNR times the padded
// depth packed. ok is false unless both panels are full and read alike,
// both in place or both packed.
func (bb bBlock) pair(jp, kcb, ncb int) (pb []float32, kd, ldb, off int, ok bool) {
	pb, kd, ldb = bb.panel(jp, kcb)
	switch {
	case (jp+2)*packNR > ncb || jp+1 == bb.full:
		return pb, kd, ldb, 0, false
	case jp < bb.full:
		return pb, kd, ldb, packNR, true
	}
	return pb, kd, ldb, packNR * kd, true
}

// gemmPanels is the five-loop nest behind gemmPacked. Either operand may
// come pre-packed: ap is a whole-operand pack of A (packAWhole's layout) and
// bp one of B (depth blocks of packKC in order, block pc starting at n₁₆·pc
// and holding the NR-column panels of every column, as packBPanels lays them
// out); a nil pack means the nest packs that operand itself from a or b,
// unless readsBInPlace has it read B where it is stored. Every route gives
// the micro-kernel the same products in the same order, so the result does
// not depend on who packed. Macro row blocks of A are distributed over the
// shared worker pool; each worker packs its own A block while the B block
// is shared read-only. C is only written: the first depth block's tiles
// store their sums and the later ones add to them.
func gemmPanels(a, b, ap, bp, c []float32, m, k, n int, transA, transB bool) {
	if m == 0 || n == 0 || k == 0 {
		clear(c[:m*n])
		return
	}
	lda := k
	if transA {
		lda = m
	}
	ldb := n
	if transB {
		ldb = k
	}
	nc := packNC
	if n < nc {
		nc = (n + packNR - 1) / packNR * packNR
	}
	kc := min(packKC, k)
	m4 := (m + packMR - 1) / packMR * packMR
	n16 := (n + packNR - 1) / packNR * packNR
	aBufLen := (min(packMC, m) + packMR - 1) / packMR * packMR * kcAligned(kc)
	inPlace := readsBInPlace(m, transB, bp != nil)
	var pb []float32
	if bp == nil {
		bBufLen := nc * kcAligned(kc)
		if inPlace { // only a ragged last panel
			bBufLen = packNR * kcAligned(kc)
		}
		pb = scratch.GetBuf(bBufLen)
	}
	for jc := 0; jc < n; jc += nc {
		ncb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcb := min(kc, k-pc)
			var blockB bBlock
			switch {
			case bp != nil:
				blockB.packed = bp[n16*pc+jc*kcAligned(kcb):]
			case inPlace:
				full := ncb / packNR
				blockB = bBlock{b: b[pc*ldb+jc:], ldb: ldb, full: full, packed: pb}
				if full*packNR < ncb {
					packBPanels(b, ldb, pc, jc+full*packNR, kcb, ncb-full*packNR, false, pb)
				}
			default:
				packBPanels(b, ldb, pc, jc, kcb, ncb, transB, pb)
				blockB.packed = pb
			}
			var blockA []float32
			if ap != nil {
				blockA = ap[m4*pc:]
			}
			mBlocks := (m + packMC - 1) / packMC
			nPanels := (ncb + packNR - 1) / packNR
			if Default.Span(mBlocks) <= 1 || mBlocks == 1 {
				var pa []float32
				if ap == nil {
					pa = scratch.GetBuf(aBufLen)
				}
				for ic := 0; ic < m; ic += packMC {
					packedMacroBlock(a, blockA, c, blockB, lda, ic, pc, jc, min(packMC, m-ic), kcb, ncb, nPanels, n, transA, pa)
				}
				scratch.PutBuf(pa)
				continue
			}
			packedParallelBlocks(a, blockA, c, blockB, lda, pc, jc, m, kcb, ncb, nPanels, n, transA, aBufLen, mBlocks)
		}
	}
	scratch.PutBuf(pb)
}

// packedParallelBlocks distributes the MC row blocks of one (jc, pc)
// iteration over the worker pool, handing each worker slot a private A pack
// buffer unless A came pre-packed. It lives apart from gemmPanels so the
// dispatch closure's captures don't force the serial path's loop variables
// onto the heap — single-worker pools run the whole GEMM allocation-free.
func packedParallelBlocks(a, ap, c []float32, bb bBlock, lda, pc, jc, m, kcb, ncb, nPanels, ldc int, transA bool, aBufLen, mBlocks int) {
	pas := make([][]float32, Default.Span(mBlocks))
	Default.ParallelWorker(mBlocks, func(w, bi int) {
		if pas[w] == nil && ap == nil {
			pas[w] = scratch.GetBuf(aBufLen)
		}
		ic := bi * packMC
		packedMacroBlock(a, ap, c, bb, lda, ic, pc, jc, min(packMC, m-ic), kcb, ncb, nPanels, ldc, transA, pas[w])
	})
	for _, buf := range pas {
		if buf != nil {
			scratch.PutBuf(buf)
		}
	}
}

// packedMacroBlock sweeps one MC×KC block of A against every panel of the
// B block, issuing one micro-kernel call per MR×NR tile; the tiles of the
// first depth block (pc = 0) store into C, the rest add. With AVX-512 two
// full panels that pair (bBlock.pair) are swept together, a full 4×32 tile
// per call; ragged rows, a ragged panel and an odd last panel keep the 4×16
// tile. The A block is read from ap, the depth block's part of a
// whole-operand pack, or, when ap is nil, packed from a into pa first.
func packedMacroBlock(a, ap, c []float32, bb bBlock, lda, ic, pc, jc, mcb, kcb, ncb, nPanels, ldc int, transA bool, pa []float32) {
	ka := kcAligned(kcb)
	if ap != nil {
		pa = ap[ic*ka:]
	} else {
		packAPanels(a, lda, ic, pc, mcb, kcb, transA, pa)
	}
	mPanels := (mcb + packMR - 1) / packMR
	for jp := 0; jp < nPanels; jp++ {
		nr := min(packNR, ncb-jp*packNR)
		bPanel, kd, ldb, off, paired := bb.pair(jp, kcb, ncb)
		paired = paired && useAVX2 && useAVX512
		for ip := 0; ip < mPanels; ip++ {
			mr := min(packMR, mcb-ip*packMR)
			tileA := pa[ip*packMR*ka : (ip+1)*packMR*ka]
			dst := c[(ic+ip*packMR)*ldc+jc+jp*packNR:]
			if paired {
				microKernelPair(tileA, bPanel, kd, ldb, off, dst, ldc, mr, pc > 0)
			} else {
				microKernel(tileA, bPanel, kd, ldb, dst, ldc, mr, nr, pc > 0)
			}
		}
		if paired {
			jp++
		}
	}
}
