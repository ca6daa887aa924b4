// Package kernels implements the low-level compute kernels that play the
// role of cuDNN/MKL-DNN in the Deep500 paper: GEMM, 2D convolution with
// three algorithms (direct, im2col+GEMM and Winograd F(2×2,3×3)), pooling,
// activations, and fused optimizer kernels.
//
// Calling a kernel directly — with no graph, no dispatch, no instrumentation
// — is this repository's "DeepBench baseline" (§V-B of the paper): the
// lowest achievable runtime against which framework overhead is measured.
//
// Public entry points: Gemm and its transposed variants (GemmT, GemmTransA,
// GemmTransB), GemmNaive (the triple-loop reference they are validated
// against), Conv2D (ConvAlgo: direct, im2col, Winograd) with ConvShape
// geometry and its gradient kernel Conv2DBackward (conv_backward.go:
// pool-parallel over fixed image chunks, bitwise repeatable), the pooling
// and activation kernels, the dense-layer bias epilogue BiasAct and the
// fused optimizer kernels (AdamFused, MomentumFused, …, §III-A Use Case 1).
// Pool is the single shared worker budget every parallel code path in the
// repository draws from.
//
// There is one product GEMM, two kernels behind one shape rule (gemmInPlace,
// gemm_small.go). From 9 rows of A up, and whenever A is transposed, it is
// the BLIS-style packed register-tiled kernel (gemm_packed.go): operands are
// repacked into cache-resident panels, with transposes folded into the
// packing, and multiplied by a 4×16 micro-kernel — AVX2 assembly on amd64
// hosts that have it (gemm_amd64.s), a pure-Go scalar tile everywhere else,
// bit for bit equal because neither fuses a multiply-add. Up to 8 rows — one
// served request, a coalesced batch — B is read in place, because a pack
// that few rows reuse costs as much as the multiply. The two agree bit for
// bit on finite operands. Convolution does not go through the rule: it
// lowers each image straight into the packed kernel's B panels and packs its
// filter once per call (conv.go), so every convolution GEMM runs the vector
// tile at any filter count. docs/kernels.md documents the rule and the
// measurement behind its constant, the packing layout, the convolution
// lowering, the micro-tile sizing and how to re-tune the blocking constants.
// Max pooling, ReLU, the convolution bias add and the two fused updates the
// training workloads run (MomentumFused, SGDFused) have AVX2 kernels too
// (exact_amd64.s), behind the same check. Each makes the pure-Go loop's
// comparisons and roundings in its operand order, so the bits are the
// loop's; FMA and flushing subnormals to zero are not allowed there.
// All scratch flows through the package-level size-class buffer pool
// (scratch.go), so steady-state kernels allocate nothing.
package kernels

// Gemm computes C = A·B for row-major matrices: A is M×K, B is K×N and C is
// M×N. C is overwritten. It is the shape-routed product kernel: it packs
// when packing amortises and reads B in place when A has only a few rows.
func Gemm(a, b, c []float32, m, k, n int) {
	GemmT(a, b, c, m, k, n, false, false)
}

// GemmT computes C = op(A)·op(B) where op transposes its operand when the
// corresponding flag is set: A is m×k logical (stored k×m when transA), B
// is k×n logical (stored n×k when transB), C is m×n and overwritten. The
// transposes are folded into the packing, or read in place by the small-M
// kernel; no transposed copy is ever made.
func GemmT(a, b, c []float32, m, k, n int, transA, transB bool) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("kernels: Gemm buffer too small")
	}
	gemmDefault(a, b, c, m, k, n, transA, transB)
}

// GemmFLOPs returns the floating-point operation count of an M×K×N GEMM.
func GemmFLOPs(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }

// GemmNaive is the triple loop, C = A·B with the same layout as Gemm: the
// slow, obviously correct reference the product kernel is validated against
// (paper §III-E). Nothing on a product path calls it.
func GemmNaive(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("kernels: GemmNaive buffer too small")
	}
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// GemmTransB computes C = A·Bᵀ where A is M×K and B is N×K (both row-major),
// producing M×N. Used by backward passes of dense layers.
func GemmTransB(a, b, c []float32, m, k, n int) {
	gemmDefault(a, b, c, m, k, n, false, true)
}

// GemmTransA computes C = Aᵀ·B where A is K×M and B is K×N (both row-major),
// producing M×N. Used by weight-gradient computation of dense layers.
func GemmTransA(a, b, c []float32, m, k, n int) {
	gemmDefault(a, b, c, m, k, n, true, false)
}

// BiasAct is the bias epilogue of a dense layer: it adds a per-column bias
// to every row of a rows×cols row-major matrix in place, one sweep.
func BiasAct(rows, cols int, inout, bias []float32) {
	for r := 0; r < rows; r++ {
		row := inout[r*cols : (r+1)*cols]
		for j := range row {
			row[j] += bias[j]
		}
	}
}
