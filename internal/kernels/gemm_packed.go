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
// The micro-tile is 2×4 with the k loop unrolled ×4 — deliberately small:
// gc has 16 XMM registers and no auto-vectorization, so 8 accumulators
// plus the a/b temporaries is the largest shape that stays spill-free
// (4×8 and even 4×4 tiles spill half their accumulators to the stack and
// run slower than the plain blocked loop). See docs/kernels.md for the
// measurements and re-tuning guidance.
const (
	packMR = 2   // micro-tile rows (accumulator rows)
	packNR = 4   // micro-tile cols (accumulator cols)
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
// float). An untransposed A keeps the row-at-a-time loop: interleaving two
// rows per step measured no faster.
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
			// B stored n×k: four logical columns are four contiguous
			// rows; read them side by side, write one vector per step.
			j := j0 + jp*packNR
			s0 := b[j*ldb+p0:][:kc]
			s1 := b[(j+1)*ldb+p0:][:kc]
			s2 := b[(j+2)*ldb+p0:][:kc]
			s3 := b[(j+3)*ldb+p0:][:kc]
			d := panel[:packNR*kc]
			for p, v := range s0 {
				q := d[4*p : 4*p+4 : 4*p+4]
				q[0], q[1], q[2], q[3] = v, s1[p], s2[p], s3[p]
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

// microKernel2x4 accumulates a packMR×packNR tile of C += Aᵖ·Bᵖ over ka
// padded depth steps (ka is a multiple of packKU). pa and pb are the
// packed panels; dst points at C[i, j] with row stride ldc; mr×nr is the
// live (unpadded) extent of the tile. The 8 accumulators stay in registers
// across the whole k loop, and the constant-index re-slicing of pa/pb
// makes every load bounds-check-free.
func microKernel2x4(pa, pb []float32, ka int, dst []float32, ldc, mr, nr int) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	for p := 0; p < ka; p += packKU {
		a := pa[: packMR*packKU : packMR*packKU]
		b := pb[: packNR*packKU : packNR*packKU]
		a0, a1 := a[0], a[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a2, a3 := a[2], a[3]
		b4, b5, b6, b7 := b[4], b[5], b[6], b[7]
		c00 += a2 * b4
		c01 += a2 * b5
		c02 += a2 * b6
		c03 += a2 * b7
		c10 += a3 * b4
		c11 += a3 * b5
		c12 += a3 * b6
		c13 += a3 * b7
		a4, a5 := a[4], a[5]
		b8, b9, b10, b11 := b[8], b[9], b[10], b[11]
		c00 += a4 * b8
		c01 += a4 * b9
		c02 += a4 * b10
		c03 += a4 * b11
		c10 += a5 * b8
		c11 += a5 * b9
		c12 += a5 * b10
		c13 += a5 * b11
		a6, a7 := a[6], a[7]
		b12, b13, b14, b15 := b[12], b[13], b[14], b[15]
		c00 += a6 * b12
		c01 += a6 * b13
		c02 += a6 * b14
		c03 += a6 * b15
		c10 += a7 * b12
		c11 += a7 * b13
		c12 += a7 * b14
		c13 += a7 * b15
		pa = pa[packMR*packKU:]
		pb = pb[packNR*packKU:]
	}
	if mr == packMR && nr == packNR {
		r0 := dst[0:packNR:packNR]
		r0[0] += c00
		r0[1] += c01
		r0[2] += c02
		r0[3] += c03
		r1 := dst[ldc : ldc+packNR : ldc+packNR]
		r1[0] += c10
		r1[1] += c11
		r1[2] += c12
		r1[3] += c13
		return
	}
	// Edge tile: stage the accumulators and add back the live extent only.
	acc := [packMR * packNR]float32{
		c00, c01, c02, c03,
		c10, c11, c12, c13,
	}
	for r := 0; r < mr; r++ {
		row := dst[r*ldc:]
		for j := 0; j < nr; j++ {
			row[j] += acc[r*packNR+j]
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
			microKernel2x4(
				pa[ip*packMR*ka:(ip+1)*packMR*ka],
				bPanel,
				ka,
				c[(ic+ip*packMR)*ldc+jc+jp*packNR:],
				ldc, mr, nr,
			)
		}
	}
}
