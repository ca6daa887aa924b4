package kernels

// useAVX2 selects the assembly kernels (gemm_amd64.s and the other .s
// files), and useAVX512 the 4×32 GEMM tile for two full B panels side by
// side (packedMacroBlock), which applies only while useAVX2 is set, so
// clearing useAVX2 reaches the pure-Go tile. Both are read from the CPU
// once, when the package initialises. AVX2 needs the processor to report
// AVX and AVX2 and the operating system to have enabled saving the YMM
// registers (OSXSAVE set, XCR0 bits 1 and 2); AVX-512 needs AVX512F as
// well, and the opmask and all 32 ZMM registers enabled too (XCR0 bits
// 5–7). Tests clear them to run other paths; nothing else writes them.
var useAVX2, useAVX512 = cpuFeatures()

func cpuFeatures() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit, avx512f = 1 << 5, 1 << 16
	avx2 = xcr0&6 == 6 && ebx7&avx2Bit != 0 // XMM and YMM state enabled
	return avx2, avx2 && xcr0&0xe6 == 0xe6 && ebx7&avx512f != 0
}

// kernel4x16AVX2 adds the packMR×packNR tile Aᵖ·B over kd depth steps into
// C at c with row stride ldc, or stores it there when add is false, reading
// the 16 B columns of each step ldb floats after the last. The caller
// guarantees kd ≥ 1 and that pa, the kd B rows and the four C rows are in
// bounds.
//
//go:noescape
func kernel4x16AVX2(pa, pb *float32, kd, ldb int, c *float32, ldc int, add bool)

// kernel4x32AVX512 is kernel4x16AVX2 over a 4×32 tile: columns 0–15 of
// each depth step from pb, columns 16–31 off floats after them. The caller
// guarantees kd ≥ 1 and that pa, both panels' kd rows and the four C rows
// of 32 are in bounds.
//
//go:noescape
func kernel4x32AVX512(pa, pb *float32, kd, ldb, off int, c *float32, ldc int, add bool)

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
