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
// so the micro-kernel never branches on bounds and its unrolled k loop
// needs no remainder handling.
//
// The micro-tile is 4×16 with the k loop unrolled ×4. On amd64 hosts with
// AVX2 it is the assembly kernel in gemm_amd64.s: eight YMM accumulators,
// two B vectors and one broadcast A value per row and depth step, multiplied
// and then added — no fused multiply-add, so each C element sees the same
// rounded products and sums in the same order as a scalar loop, and the
// output is bit for bit what the scalar 2×4 tile it replaced produced.
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
// mc and depth past kc are zero-filled. A full panel of a transposed A moves
// one whole MR-vector per depth step (no inner loop, no bounds test per
// float). An untransposed A keeps the row-at-a-time loop: on the benchmark
// shapes its block is a small share of the packing (32 rows of A against a
// 784×512 B).
func packAPanels(a []float32, lda, i0, p0, mc, kc int, trans bool, dst []float32) {
	ka := kcAligned(kc)
	panels := (mc + packMR - 1) / packMR
	for ip := 0; ip < panels; ip++ {
		rows := min(packMR, mc-ip*packMR)
		panel := dst[ip*packMR*ka : (ip+1)*packMR*ka]
		switch {
		case rows == packMR && trans:
			// A stored k×m: the MR logical rows of one depth step are
			// adjacent in memory and already in panel order.
			off := p0*lda + i0 + ip*packMR
			for d := panel[:packMR*kc]; len(d) >= packMR; d = d[packMR:] {
				*(*[packMR]float32)(d) = *(*[packMR]float32)(a[off:])
				off += lda
			}
		case trans:
			for p := 0; p < kc; p++ {
				src := a[(p0+p)*lda+i0+ip*packMR:]
				d := panel[p*packMR : p*packMR+packMR]
				for r := 0; r < rows; r++ {
					d[r] = src[r]
				}
				for r := rows; r < packMR; r++ {
					d[r] = 0
				}
			}
		default:
			for r := 0; r < rows; r++ {
				src := a[(i0+ip*packMR+r)*lda+p0:]
				for p := 0; p < kc; p++ {
					panel[p*packMR+r] = src[p]
				}
			}
			for r := rows; r < packMR; r++ {
				for p := 0; p < kc; p++ {
					panel[p*packMR+r] = 0
				}
			}
		}
		for i := kc * packMR; i < ka*packMR; i++ {
			panel[i] = 0
		}
	}
}

// packBPanels packs the kc×nc block of B starting at logical (p0, j0) into
// NR-column panels of padded depth kcAligned(kc). B is k×n row-major, or
// its n×k transpose when trans is set; ldb is the stored row stride.
// Columns past nc and depth past kc are zero-filled. A full panel moves one
// whole NR-vector per depth step in either layout (about a third of the
// element-at-a-time cost); the ragged last panel keeps the general loop.
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
			for p, v := range s0 {
				q := (*[packNR]float32)(d[packNR*p:])
				q[0], q[1], q[2], q[3] = v, s1[p], s2[p], s3[p]
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

// microKernel adds the packMR×packNR tile Aᵖ·Bᵖ, summed over ka padded
// depth steps (ka is a multiple of packKU), into C. pa and pb are the packed
// panels; dst points at C[i, j] with row stride ldc; mr×nr is the live
// (unpadded) extent of the tile. With AVX2 the assembly kernel does the
// arithmetic: a full tile adds straight into C, an edge tile into a zeroed
// stack tile whose live extent is then added to C. Either way every C
// element gets 0 + Σ rounded products in depth order, then C + sum, the same
// bits as the pure-Go tile.
func microKernel(pa, pb []float32, ka int, dst []float32, ldc, mr, nr int) {
	if !useAVX2 {
		microKernelGo(pa, pb, ka, dst, ldc, mr, nr)
		return
	}
	pa = pa[:packMR*ka]
	pb = pb[:packNR*ka]
	if mr == packMR && nr == packNR {
		_ = dst[(packMR-1)*ldc+packNR-1]
		kernel4x16AVX2(&pa[0], &pb[0], ka, &dst[0], ldc)
		return
	}
	var tile [packMR * packNR]float32
	kernel4x16AVX2(&pa[0], &pb[0], ka, &tile[0], packNR)
	for r := 0; r < mr; r++ {
		row := dst[r*ldc : r*ldc+nr]
		for j, v := range tile[r*packNR : r*packNR+nr] {
			row[j] += v
		}
	}
}

// microKernelGo is the portable micro-kernel: a 2×4 scalar register tile
// swept over the live 2×4 sub-tiles of the packed 4×16 panels. gc gives
// pure Go 16 scalar FP registers and no vectorization, and eight
// accumulators plus the a/b temporaries is the largest tile whose
// accumulators stay in registers (4×4 and 4×8 spill them every step).
func microKernelGo(pa, pb []float32, ka int, dst []float32, ldc, mr, nr int) {
	for r := 0; r < mr; r += 2 {
		for j := 0; j < nr; j += 4 {
			tile2x4(pa[r:], pb[j:], ka, dst[r*ldc+j:], ldc, min(2, mr-r), min(4, nr-j))
		}
	}
}

// tile2x4 accumulates rows 0–1 × columns 0–3 of a packed tile: pa and pb
// start at the sub-tile's first row and column inside 4×16 panels. The 8
// accumulators stay in registers across the whole k loop, unrolled ×4, and
// the constant-length re-slicing makes every load bounds-check-free. The
// float32 conversions pin each product's rounding, so no target may fuse
// a multiply-add and move bits away from the assembly kernel.
func tile2x4(pa, pb []float32, ka int, dst []float32, ldc, mr, nr int) {
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
		r0[0] += c00
		r0[1] += c01
		r0[2] += c02
		r0[3] += c03
		r1 := dst[ldc : ldc+4 : ldc+4]
		r1[0] += c10
		r1[1] += c11
		r1[2] += c12
		r1[3] += c13
		return
	}
	// Edge tile: stage the accumulators and add back the live extent only.
	acc := [2][4]float32{{c00, c01, c02, c03}, {c10, c11, c12, c13}}
	for r := 0; r < mr; r++ {
		row := dst[r*ldc:]
		for j := 0; j < nr; j++ {
			row[j] += acc[r][j]
		}
	}
}

// gemmPacked computes C = op(A)·op(B) with panel packing and the
// register-tiled micro-kernel. A is m×k (or stored k×m when transA), B is
// k×n (or stored n×k when transB), C is m×n and is overwritten. Macro row
// blocks of A are distributed over the shared worker pool; each worker
// packs its own A block while the packed B block is shared read-only.
func gemmPacked(a, b, c []float32, m, k, n int, transA, transB bool) {
	for i := range c[:m*n] {
		c[i] = 0
	}
	if m == 0 || n == 0 || k == 0 {
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
	aBufLen := (min(packMC, m) + packMR - 1) / packMR * packMR * kcAligned(kc)
	bBufLen := (nc + packNR - 1) / packNR * packNR * kcAligned(kc)
	pb := scratch.GetBuf(bBufLen)
	defer scratch.PutBuf(pb)
	for jc := 0; jc < n; jc += nc {
		ncb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcb := min(kc, k-pc)
			packBPanels(b, ldb, pc, jc, kcb, ncb, transB, pb)
			mBlocks := (m + packMC - 1) / packMC
			nPanels := (ncb + packNR - 1) / packNR
			if Default.Span(mBlocks) <= 1 || mBlocks == 1 {
				pa := scratch.GetBuf(aBufLen)
				for ic := 0; ic < m; ic += packMC {
					packedMacroBlock(a, c, pb, lda, ic, pc, jc, min(packMC, m-ic), kcb, ncb, nPanels, n, transA, pa)
				}
				scratch.PutBuf(pa)
				continue
			}
			packedParallelBlocks(a, c, pb, lda, pc, jc, m, kcb, ncb, nPanels, n, transA, aBufLen, mBlocks)
		}
	}
}

// packedParallelBlocks distributes the MC row blocks of one (jc, pc)
// iteration over the worker pool, handing each worker slot a private A pack
// buffer. It lives apart from gemmPacked so the dispatch closure's captures
// don't force the serial path's loop variables onto the heap — single-worker
// pools run the whole GEMM allocation-free.
func packedParallelBlocks(a, c, pb []float32, lda, pc, jc, m, kcb, ncb, nPanels, ldc int, transA bool, aBufLen, mBlocks int) {
	pas := make([][]float32, Default.Span(mBlocks))
	Default.ParallelWorker(mBlocks, func(w, bi int) {
		if pas[w] == nil {
			pas[w] = scratch.GetBuf(aBufLen)
		}
		ic := bi * packMC
		packedMacroBlock(a, c, pb, lda, ic, pc, jc, min(packMC, m-ic), kcb, ncb, nPanels, ldc, transA, pas[w])
	})
	for _, buf := range pas {
		if buf != nil {
			scratch.PutBuf(buf)
		}
	}
}

// packedMacroBlock packs one MC×KC block of A and sweeps it against every
// packed B panel, issuing one micro-kernel call per MR×NR tile.
func packedMacroBlock(a, c, pb []float32, lda, ic, pc, jc, mcb, kcb, ncb, nPanels, ldc int, transA bool, pa []float32) {
	packAPanels(a, lda, ic, pc, mcb, kcb, transA, pa)
	ka := kcAligned(kcb)
	mPanels := (mcb + packMR - 1) / packMR
	for jp := 0; jp < nPanels; jp++ {
		nr := min(packNR, ncb-jp*packNR)
		bPanel := pb[jp*packNR*ka : (jp+1)*packNR*ka]
		for ip := 0; ip < mPanels; ip++ {
			mr := min(packMR, mcb-ip*packMR)
			microKernel(
				pa[ip*packMR*ka:(ip+1)*packMR*ka],
				bPanel,
				ka,
				c[(ic+ip*packMR)*ldc+jc+jp*packNR:],
				ldc, mr, nr,
			)
		}
	}
}
