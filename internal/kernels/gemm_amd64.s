#include "textflag.h"

// func kernel4x16AVX2(pa, pb *float32, ka int, c *float32, ldc int)
//
// C[0:4, 0:16] += Aᵖ·Bᵖ over ka packed depth steps (ka a positive multiple
// of 4). pa is a 4-row A panel (4 floats per depth step), pb a 16-column B
// panel (16 floats per step), c points at C[0, 0] and ldc is C's row stride
// in floats. Y0–Y7 hold the 4×16 tile, two YMM vectors per row, for the
// whole depth loop. Each step multiplies and then adds — VMULPS, VADDPS,
// never a fused multiply-add — so every C element sees the same rounded
// products and sums, in the same order, as the scalar fallback.
TEXT ·kernel4x16AVX2(SB), NOSPLIT, $0-40
	MOVQ pa+0(FP), SI
	MOVQ pb+8(FP), DI
	MOVQ ka+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8
	SHRQ $2, CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

#define STEP(aoff, boff) \
	VMOVUPS      boff(DI), Y8         \
	VMOVUPS      boff+32(DI), Y9      \
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

loop:
	STEP(0, 0)
	STEP(16, 64)
	STEP(32, 128)
	STEP(48, 192)
	ADDQ $64, SI
	ADDQ $256, DI
	DECQ CX
	JNZ  loop

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
