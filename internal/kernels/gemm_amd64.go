package kernels

// useAVX2 selects the assembly micro-kernel (gemm_amd64.s). It is read from
// the CPU once, when the package initialises: the processor must report AVX
// and AVX2, and the operating system must have enabled saving the YMM
// registers (OSXSAVE set, XCR0 bits 1 and 2). Tests clear it to run the
// pure-Go tile; nothing else writes it.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// kernel4x16AVX2 adds the packMR×packNR tile Aᵖ·B over kd depth steps into
// C at c with row stride ldc, or stores it there when add is false, reading
// the 16 B columns of each step ldb floats after the last. The caller
// guarantees kd ≥ 1 and that pa, the kd B rows and the four C rows are in
// bounds.
//
//go:noescape
func kernel4x16AVX2(pa, pb *float32, kd, ldb int, c *float32, ldc int, add bool)

// packBTransAVX2 is packBPanels' loop for a full panel of a transposed B
// over steps depth steps, a positive multiple of 4; the 16 rows from b,
// ldb floats apart, and dst are in bounds.
//
//go:noescape
func packBTransAVX2(dst, b *float32, ldb, steps int)

// packRows4AVX2 is packRowsSideBySide's loop over steps depth steps, a
// positive multiple of 8; the four rows and dst are in bounds.
//
//go:noescape
func packRows4AVX2(dst, s0, s1, s2, s3 *float32, steps int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
