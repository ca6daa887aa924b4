package kernels

// Small-M GEMM: the product of a few rows of A with a B that is read in
// place. Packing B costs one pass over k·n floats and pays for itself only
// when each packed element is reused by many rows of A; a served request is
// one row and a coalesced batch is eight. Below smallMRows rows the packed
// kernel spends as long packing as multiplying (docs/kernels.md has the
// crossover table), so those shapes come here instead. Convolution is not
// among them: its lowering writes the packed panels directly, so it has no
// separate pack to amortise.
//
// The kernel keeps gemmPacked's accumulation order exactly: depth is cut
// into blocks of packKC, each C element sums its block sequentially in p
// from zero, and block sums are added to C in block order. Skipping an
// a == 0 term leaves a finite sum unchanged (x + ±0 = x, and a running sum
// that started at +0 is never −0), so for finite operands the result is
// bitwise equal to gemmPacked's and a row's output does not depend on how
// many rows share its batch or on which side of smallMRows the batch fell.
// Every product is converted to float32 before it is added, as in the packed
// kernel's pure-Go tile: gc fuses a multiply-add on some targets (arm64),
// and a fused term rounds once where the other kernel rounds twice.

// smallMRows is the largest m routed to the in-place kernel. Measured, not
// tuned per host: docs/kernels.md records the sweep and how to repeat it.
const smallMRows = 8

// gemmInPlace is the one shape rule in front of the packed kernel: it
// reports whether C = op(A)·op(B) goes to the in-place kernel. An
// untransposed A of at most smallMRows rows does; everything else packs. k
// and n do not enter today — the sweep found no (k, n) at which the answer
// flips for a fixed m — but the rule is a function of the whole shape so that
// a measurement that says otherwise changes one place.
func gemmInPlace(m, k, n int, transA, transB bool) bool {
	return !transA && m <= smallMRows
}

// gemmDefault computes C = op(A)·op(B) by whichever kernel the rule picks.
func gemmDefault(a, b, c []float32, m, k, n int, transA, transB bool) {
	if gemmInPlace(m, k, n, transA, transB) {
		gemmSmallM(a, b, c, m, k, n, transB)
		return
	}
	gemmPacked(a, b, c, m, k, n, transA, transB)
}

// gemmSmallM computes C = A·op(B) for an m×k row-major A without packing
// either operand. B is k×n, or stored n×k when transB. C is overwritten.
func gemmSmallM(a, b, c []float32, m, k, n int, transB bool) {
	c = c[:m*n]
	clear(c)
	if transB {
		for pc := 0; pc < k; pc += packKC {
			smallDotBlock(a, b, c, m, k, n, pc, min(packKC, k-pc))
		}
		return
	}
	// The first depth block sums straight into the zeroed C (0 + s = s);
	// later blocks sum into a scratch copy of C's shape that is then added,
	// which is the packed kernel's "C += block sum".
	smallStreamBlock(a, b, c, m, k, n, 0, min(packKC, k))
	if k <= packKC {
		return
	}
	part := scratch.GetBuf(m * n)[:m*n]
	for pc := packKC; pc < k; pc += packKC {
		clear(part)
		smallStreamBlock(a, b, part, m, k, n, pc, min(packKC, k-pc))
		addTo(c, part)
	}
	scratch.PutBuf(part)
}

// smallStreamBlock adds A[:, pc:pc+kc]·B[pc:pc+kc, :] to acc (m×n) for a
// B stored k×n. Each A row first lists its non-zero entries in the block —
// inputs that follow a ReLU are about half zeros — and then streams four B
// rows per sweep of its accumulator row, so acc is loaded and stored once
// per four multiply-adds.
func smallStreamBlock(a, b, acc []float32, m, k, n, pc, kc int) {
	var idx [packKC]int32
	for i := 0; i < m; i++ {
		ai := a[i*k+pc : i*k+pc+kc]
		nz := 0
		for p, v := range ai {
			idx[nz] = int32(p)
			if v != 0 {
				nz++
			}
		}
		row := acc[i*n : (i+1)*n]
		g := 0
		for ; g+4 <= nz; g += 4 {
			p0, p1, p2, p3 := int(idx[g]), int(idx[g+1]), int(idx[g+2]), int(idx[g+3])
			a0, a1, a2, a3 := ai[p0], ai[p1], ai[p2], ai[p3]
			b0 := b[(pc+p0)*n:][:len(row)]
			b1 := b[(pc+p1)*n:][:len(row)]
			b2 := b[(pc+p2)*n:][:len(row)]
			b3 := b[(pc+p3)*n:][:len(row)]
			for j, s := range row {
				row[j] = s + float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
			}
		}
		for ; g < nz; g++ {
			p := int(idx[g])
			av := ai[p]
			bp := b[(pc+p)*n:][:len(row)]
			for j, s := range row {
				row[j] = s + float32(av*bp[j])
			}
		}
	}
}

// smallDotBlock adds A[:, pc:pc+kc]·Bᵀ[pc:pc+kc, :] to C (m×n) for a B
// stored n×k: every C element is a dot product of an A row with a B row,
// both contiguous. Two A rows against four B rows keep eight independent
// accumulators, as the pure-Go micro-tile does; an edge tile repeats its
// last row or column as a stand-in and drops the duplicate sums.
func smallDotBlock(a, b, c []float32, m, k, n, pc, kc int) {
	for i := 0; i < m; i += 2 {
		i1 := min(i+1, m-1)
		a0 := a[i*k+pc:][:kc]
		a1 := a[i1*k+pc:][:kc]
		for j := 0; j < n; j += 4 {
			j1, j2, j3 := min(j+1, n-1), min(j+2, n-1), min(j+3, n-1)
			b0 := b[j*k+pc:][:kc]
			b1 := b[j1*k+pc:][:kc]
			b2 := b[j2*k+pc:][:kc]
			b3 := b[j3*k+pc:][:kc]
			var c00, c01, c02, c03 float32
			var c10, c11, c12, c13 float32
			for p, x0 := range a0 {
				x1 := a1[p]
				y0, y1, y2, y3 := b0[p], b1[p], b2[p], b3[p]
				c00 += float32(x0 * y0)
				c01 += float32(x0 * y1)
				c02 += float32(x0 * y2)
				c03 += float32(x0 * y3)
				c10 += float32(x1 * y0)
				c11 += float32(x1 * y1)
				c12 += float32(x1 * y2)
				c13 += float32(x1 * y3)
			}
			sums := [2][4]float32{{c00, c01, c02, c03}, {c10, c11, c12, c13}}
			for r := 0; r < min(2, m-i); r++ {
				row := c[(i+r)*n+j:]
				for q := 0; q < min(4, n-j); q++ {
					row[q] += sums[r][q]
				}
			}
		}
	}
}
