// Package kernels implements the low-level compute kernels that play the
// role of cuDNN/MKL-DNN in the Deep500 paper: GEMM with several blocking
// strategies, 2D convolution with three algorithms (direct, im2col+GEMM and
// Winograd F(2×2,3×3)), pooling, activations, and fused optimizer kernels.
//
// Calling a kernel directly — with no graph, no dispatch, no instrumentation
// — is this repository's "DeepBench baseline" (§V-B of the paper): the
// lowest achievable runtime against which framework overhead is measured.
//
// Public entry points: Gemm (with GemmAlgo selection) and the transposed
// variants, Conv2D (ConvAlgo: direct, im2col, Winograd) with ConvShape
// geometry and its gradient kernel Conv2DBackward (conv_backward.go:
// pool-parallel over fixed image chunks, bitwise repeatable), the pooling
// and activation kernels, the fused optimizer
// kernels (AdamFused, MomentumFused, …, §III-A Use Case 1) and the fused
// graph-operator epilogues (BiasAct, BiasReLUFused, ActGradFromOutput)
// used by the compile pipeline's fusion pass. Pool is the single shared
// worker budget every parallel code path in the repository draws from.
//
// The default GEMM algorithm is GemmPacked, the product kernel, which is
// two kernels behind one shape rule (gemmInPlace, gemm_small.go). From 9 rows
// of A up, and whenever A is transposed, it is the BLIS-style packed
// register-tiled kernel (gemm_packed.go): operands are repacked into
// cache-resident panels and multiplied by a spill-free 2×4 register
// micro-kernel, with transposes folded into the packing. Up to 8 rows — one
// served request, a coalesced batch, every per-image convolution GEMM of a
// narrow layer — B is read in place, because a pack that few rows reuse
// costs as much as the multiply. The two agree bit for bit on finite
// operands. docs/kernels.md documents the rule and the measurement behind
// its constant, the packing layout, the micro-tile sizing and how to re-tune
// the blocking constants. All scratch flows through the package-level
// size-class buffer pool (scratch.go), so steady-state kernels allocate
// nothing.
package kernels

// gemmBlock is the cache-blocking tile edge used by the blocked kernels.
// 64×64 float32 tiles (16 KiB) fit comfortably in L1/L2 caches.
const gemmBlock = 64

// GemmAlgo selects a GEMM implementation.
type GemmAlgo int

const (
	// GemmNaive is the triple loop (reference; used for validation).
	GemmNaive GemmAlgo = iota
	// GemmBlocked adds cache blocking with an ikj inner order.
	GemmBlocked
	// GemmParallel is GemmBlocked parallelized over row panels.
	GemmParallel
	// GemmPacked is the product kernel. Where packing amortises it is the
	// BLIS-style kernel (gemm_packed.go): operands are repacked into
	// cache-resident panels and driven through a 2×4 register-tiled
	// micro-kernel (the largest tile gc keeps spill-free; gemm_packed.go
	// and docs/kernels.md record why 4×8 was rejected), parallelized over
	// macro row blocks. For a few rows of A it reads B in place instead
	// (gemmInPlace), with bitwise the same result.
	GemmPacked
)

func (a GemmAlgo) String() string {
	switch a {
	case GemmNaive:
		return "naive"
	case GemmBlocked:
		return "blocked"
	case GemmParallel:
		return "parallel"
	case GemmPacked:
		return "packed"
	}
	return "unknown"
}

// ParseGemmAlgo maps an algorithm name (as printed by String) back to its
// GemmAlgo. The second result is false for unknown names.
func ParseGemmAlgo(name string) (GemmAlgo, bool) {
	switch name {
	case "naive":
		return GemmNaive, true
	case "blocked":
		return GemmBlocked, true
	case "parallel":
		return GemmParallel, true
	case "packed":
		return GemmPacked, true
	}
	return GemmPacked, false
}

// Gemm computes C = A·B for row-major matrices: A is M×K, B is K×N and C is
// M×N. C is overwritten. The algo parameter selects the implementation;
// GemmPacked, the default everywhere, is the shape-routed product kernel
// (gemmInPlace): it packs when packing amortises and reads B in place when
// A has only a few rows.
func Gemm(algo GemmAlgo, a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("kernels: Gemm buffer too small")
	}
	switch algo {
	case GemmNaive:
		gemmNaive(a, b, c, m, k, n)
	case GemmBlocked:
		gemmBlocked(a, b, c, m, k, n)
	case GemmParallel:
		gemmParallel(a, b, c, m, k, n)
	case GemmPacked:
		gemmDefault(a, b, c, m, k, n, false, false)
	default:
		panic("kernels: unknown GEMM algorithm")
	}
}

// GemmT computes C = op(A)·op(B) where op transposes its operand when the
// corresponding flag is set: A is m×k logical (stored k×m when transA), B
// is k×n logical (stored n×k when transB), C is m×n and overwritten. Only
// the product kernel reads transposed operands (folded into its packing, or
// read in place by the small-M kernel), so algo selects the implementation
// for the plain layout alone; a transposed product always takes the default
// route.
func GemmT(algo GemmAlgo, a, b, c []float32, m, k, n int, transA, transB bool) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("kernels: GemmT buffer too small")
	}
	if !transA && !transB {
		Gemm(algo, a, b, c, m, k, n)
		return
	}
	gemmDefault(a, b, c, m, k, n, transA, transB)
}

// GemmFLOPs returns the floating-point operation count of an M×K×N GEMM.
func GemmFLOPs(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }

func gemmNaive(a, b, c []float32, m, k, n int) {
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

func gemmBlocked(a, b, c []float32, m, k, n int) {
	for i := 0; i < m*n; i++ {
		c[i] = 0
	}
	gemmBlockedRange(a, b, c, m, k, n, 0, m)
}

// gemmBlockedRange accumulates rows [i0, i1) of C using cache blocking.
// C must be zeroed by the caller.
func gemmBlockedRange(a, b, c []float32, m, k, n, i0, i1 int) {
	for ii := i0; ii < i1; ii += gemmBlock {
		iMax := min(ii+gemmBlock, i1)
		for pp := 0; pp < k; pp += gemmBlock {
			pMax := min(pp+gemmBlock, k)
			for jj := 0; jj < n; jj += gemmBlock {
				jMax := min(jj+gemmBlock, n)
				for i := ii; i < iMax; i++ {
					ci := c[i*n : (i+1)*n]
					ai := a[i*k : (i+1)*k]
					for p := pp; p < pMax; p++ {
						av := ai[p]
						bp := b[p*n : (p+1)*n]
						for j := jj; j < jMax; j++ {
							ci[j] += av * bp[j]
						}
					}
				}
			}
		}
	}
}

func gemmParallel(a, b, c []float32, m, k, n int) {
	// Small problems are not worth the fan-out.
	if Default.Workers() <= 1 || int64(m)*int64(k)*int64(n) < 64*64*64 {
		gemmBlocked(a, b, c, m, k, n)
		return
	}
	for i := 0; i < m*n; i++ {
		c[i] = 0
	}
	// One task per row panel, at most one blocking tile tall but fine
	// enough that even short matrices (m below gemmBlock) split across the
	// worker budget; the pool balances panels across whatever workers are
	// free.
	rowsPer := (m + Default.Workers() - 1) / Default.Workers()
	if rowsPer > gemmBlock {
		rowsPer = gemmBlock
	}
	if rowsPer < 1 {
		rowsPer = 1
	}
	blocks := (m + rowsPer - 1) / rowsPer
	Default.Parallel(blocks, func(bi int) {
		i0 := bi * rowsPer
		gemmBlockedRange(a, b, c, m, k, n, i0, min(i0+rowsPer, m))
	})
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
