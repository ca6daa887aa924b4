#include "textflag.h"

// func kernel4x16AVX2(pa, pb *float32, kd, ldb int, c *float32, ldc int, add bool)
//
// C[0:4, 0:16] += Aᵖ·B over kd depth steps (kd ≥ 1), or C[0:4, 0:16] =
// Aᵖ·B when add is false, which never reads C. pa is a 4-row packed
// A panel (4 floats per depth step). pb points at the first of kd rows of
// 16 B columns, ldb floats apart: a packed B panel (ldb 16) or B where it
// is stored. c points at C[0, 0] and ldc is C's row stride in floats. Y0–Y7
// hold the 4×16 tile, two YMM vectors per row, for the whole depth loop:
// kd/4 unrolled steps of four, then kd mod 4 single steps. Each step
// multiplies and then adds — VMULPS, VADDPS, never a fused multiply-add —
// so every C element sees the same rounded products and sums, in the same
// order, as the scalar fallback.
TEXT ·kernel4x16AVX2(SB), NOSPLIT, $0-49
	MOVQ pa+0(FP), SI
	MOVQ pb+8(FP), DI
	MOVQ kd+16(FP), CX
	MOVQ ldb+24(FP), R9
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R8
	SHLQ $2, R8
	SHLQ $2, R9              // one B row, in bytes
	LEAQ (R9)(R9*2), R10     // three B rows
	MOVQ R9, R11
	SHLQ $2, R11             // four B rows
	MOVQ CX, BX
	ANDQ $3, BX              // single steps after the unrolled loop
	SHRQ $2, CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

#define STEP(aoff, brow, brow32) \
	VMOVUPS      brow, Y8             \
	VMOVUPS      brow32, Y9           \
	VBROADCASTSS aoff(SI), Y10        \
	VMULPS       Y8, Y10, Y11         \
	VMULPS       Y9, Y10, Y12         \
	VADDPS       Y11, Y0, Y0          \
	VADDPS       Y12, Y1, Y1          \
	VBROADCASTSS aoff+4(SI), Y13      \
	VMULPS       Y8, Y13, Y14         \
	VMULPS       Y9, Y13, Y15         \
	VADDPS       Y14, Y2, Y2          \
	VADDPS       Y15, Y3, Y3          \
	VBROADCASTSS aoff+8(SI), Y10      \
	VMULPS       Y8, Y10, Y11         \
	VMULPS       Y9, Y10, Y12         \
	VADDPS       Y11, Y4, Y4          \
	VADDPS       Y12, Y5, Y5          \
	VBROADCASTSS aoff+12(SI), Y13     \
	VMULPS       Y8, Y13, Y14         \
	VMULPS       Y9, Y13, Y15         \
	VADDPS       Y14, Y6, Y6          \
	VADDPS       Y15, Y7, Y7

	TESTQ CX, CX
	JZ    tail

loop:
	STEP(0, (DI), 32(DI))
	STEP(16, (DI)(R9*1), 32(DI)(R9*1))
	STEP(32, (DI)(R9*2), 32(DI)(R9*2))
	STEP(48, (DI)(R10*1), 32(DI)(R10*1))
	ADDQ $64, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  loop

tail:
	TESTQ BX, BX
	JZ    store

single:
	STEP(0, (DI), 32(DI))
	ADDQ $16, SI
	ADDQ R9, DI
	DECQ BX
	JNZ  single

store:
	CMPB add+48(FP), $0
	JEQ  overwrite

	// C += tile, one row of 16 at a time.
	VADDPS  (DX), Y0, Y0
	VMOVUPS Y0, (DX)
	VADDPS  32(DX), Y1, Y1
	VMOVUPS Y1, 32(DX)
	ADDQ    R8, DX
	VADDPS  (DX), Y2, Y2
	VMOVUPS Y2, (DX)
	VADDPS  32(DX), Y3, Y3
	VMOVUPS Y3, 32(DX)
	ADDQ    R8, DX
	VADDPS  (DX), Y4, Y4
	VMOVUPS Y4, (DX)
	VADDPS  32(DX), Y5, Y5
	VMOVUPS Y5, 32(DX)
	ADDQ    R8, DX
	VADDPS  (DX), Y6, Y6
	VMOVUPS Y6, (DX)
	VADDPS  32(DX), Y7, Y7
	VMOVUPS Y7, 32(DX)
	VZEROUPPER
	RET

overwrite:
	// C = tile: the first depth block's sums. A tile sum that starts at +0
	// is never −0, so this is the bits of adding it to a cleared C.
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    R8, DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	ADDQ    R8, DX
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	ADDQ    R8, DX
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)
	VZEROUPPER
	RET

// TRANSPOSE8x4 writes four depth steps of eight panel lanes from eight B
// rows R9 bytes apart (R10 = 3·R9): lanes 0–3 from the rows at r0, lanes
// 4–7 from those at r4. Each row's four floats are loaded with those of
// the row four lanes on into the upper half, so the in-lane unpack and
// shuffle leave each step's eight lanes in one register, stored 64 bytes
// (one panel step) apart from off(DI).
#define TRANSPOSE8x4(r0, r4, off) \
	VMOVUPS     (r0), X0                     \
	VINSERTF128 $1, (r4), Y0, Y0             \
	VMOVUPS     (r0)(R9*1), X1               \
	VINSERTF128 $1, (r4)(R9*1), Y1, Y1       \
	VMOVUPS     (r0)(R9*2), X2               \
	VINSERTF128 $1, (r4)(R9*2), Y2, Y2       \
	VMOVUPS     (r0)(R10*1), X3              \
	VINSERTF128 $1, (r4)(R10*1), Y3, Y3      \
	VUNPCKLPS   Y1, Y0, Y4                   \
	VUNPCKHPS   Y1, Y0, Y5                   \
	VUNPCKLPS   Y3, Y2, Y6                   \
	VUNPCKHPS   Y3, Y2, Y7                   \
	VSHUFPS     $0x44, Y6, Y4, Y8            \
	VSHUFPS     $0xEE, Y6, Y4, Y9            \
	VSHUFPS     $0x44, Y7, Y5, Y10           \
	VSHUFPS     $0xEE, Y7, Y5, Y11           \
	VMOVUPS     Y8, off(DI)                  \
	VMOVUPS     Y9, off+64(DI)               \
	VMOVUPS     Y10, off+128(DI)             \
	VMOVUPS     Y11, off+192(DI)

// func packBTransAVX2(dst, b *float32, ldb, steps int)
//
// Writes steps depth steps (a positive multiple of 4) of a full transposed
// B panel: dst[16p+j] = b[j·ldb+p] for the panel's 16 rows of B, which is
// stored n×k with row stride ldb. Four steps at a time: rows 0–7 fill lanes
// 0–7 of each step, rows 8–15 lanes 8–15. It only moves bits.
TEXT ·packBTransAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R9
	MOVQ steps+24(FP), CX
	SHLQ $2, R9              // one B row, in bytes
	LEAQ (R9)(R9*2), R10     // three rows
	LEAQ (SI)(R9*4), R11     // row 4
	LEAQ (R11)(R9*4), R12    // row 8
	LEAQ (R12)(R9*4), R13    // row 12
	SHRQ $2, CX

packBTransLoop:
	TRANSPOSE8x4(SI, R11, 0)
	TRANSPOSE8x4(R12, R13, 32)
	ADDQ $16, SI
	ADDQ $16, R11
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $256, DI
	DECQ CX
	JNZ  packBTransLoop
	VZEROUPPER
	RET

// func packRows4AVX2(dst, s0, s1, s2, s3 *float32, steps int)
//
// Writes steps depth steps (a positive multiple of 8) of an A panel from
// four rows read side by side: dst[4p+r] = s_r[p]. Eight steps at a time:
// the four rows' eight floats are unpacked and shuffled into [p | p+4]
// pairs of steps, and VPERM2F128 puts adjacent steps together. It only
// moves bits.
TEXT ·packRows4AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ s0+8(FP), SI
	MOVQ s1+16(FP), R8
	MOVQ s2+24(FP), R9
	MOVQ s3+32(FP), R10
	MOVQ steps+40(FP), CX
	SHRQ $3, CX

packRowsLoop:
	VMOVUPS    (SI), Y0
	VMOVUPS    (R8), Y1
	VMOVUPS    (R9), Y2
	VMOVUPS    (R10), Y3
	VUNPCKLPS  Y1, Y0, Y4
	VUNPCKHPS  Y1, Y0, Y5
	VUNPCKLPS  Y3, Y2, Y6
	VUNPCKHPS  Y3, Y2, Y7
	VSHUFPS    $0x44, Y6, Y4, Y8      // steps 0 | 4
	VSHUFPS    $0xEE, Y6, Y4, Y9      // steps 1 | 5
	VSHUFPS    $0x44, Y7, Y5, Y10     // steps 2 | 6
	VSHUFPS    $0xEE, Y7, Y5, Y11     // steps 3 | 7
	VPERM2F128 $0x20, Y9, Y8, Y0
	VPERM2F128 $0x20, Y11, Y10, Y1
	VPERM2F128 $0x31, Y9, Y8, Y2
	VPERM2F128 $0x31, Y11, Y10, Y3
	VMOVUPS    Y0, (DI)
	VMOVUPS    Y1, 32(DI)
	VMOVUPS    Y2, 64(DI)
	VMOVUPS    Y3, 96(DI)
	ADDQ       $32, SI
	ADDQ       $32, R8
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $128, DI
	DECQ       CX
	JNZ        packRowsLoop
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
