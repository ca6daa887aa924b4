#include "textflag.h"

// The exact pooling and activation kernels. None of them rounds anything
// the pure-Go loops do not: the pool and ReLU only compare and select, and
// the pool's backward pass and the bias add make the same single VADDPS
// rounding as the scalar add. Every instruction is VEX-encoded — a legacy
// SSE instruction between AVX ones costs a state transition each time —
// and every routine ends with VZEROUPPER.

// poolCols holds int32 lane constants. +0: the input column of each lane's
// (0, 0) candidate relative to the group's first column, in the order
// VSHUFPS $0x88 leaves the even columns of two 8-float loads. +32: the
// same for the 4-wide form, which needs no reordering. +48: VPERMPS
// indices that spread four window values over the window's eight columns.
// +80: 0…7, the column offsets of eight consecutive input elements.
DATA poolCols<>+0(SB)/4, $0
DATA poolCols<>+4(SB)/4, $2
DATA poolCols<>+8(SB)/4, $8
DATA poolCols<>+12(SB)/4, $10
DATA poolCols<>+16(SB)/4, $4
DATA poolCols<>+20(SB)/4, $6
DATA poolCols<>+24(SB)/4, $12
DATA poolCols<>+28(SB)/4, $14
DATA poolCols<>+32(SB)/4, $0
DATA poolCols<>+36(SB)/4, $2
DATA poolCols<>+40(SB)/4, $4
DATA poolCols<>+44(SB)/4, $6
DATA poolCols<>+48(SB)/4, $0
DATA poolCols<>+52(SB)/4, $0
DATA poolCols<>+56(SB)/4, $1
DATA poolCols<>+60(SB)/4, $1
DATA poolCols<>+64(SB)/4, $2
DATA poolCols<>+68(SB)/4, $2
DATA poolCols<>+72(SB)/4, $3
DATA poolCols<>+76(SB)/4, $3
DATA poolCols<>+80(SB)/4, $0
DATA poolCols<>+84(SB)/4, $1
DATA poolCols<>+88(SB)/4, $2
DATA poolCols<>+92(SB)/4, $3
DATA poolCols<>+96(SB)/4, $4
DATA poolCols<>+100(SB)/4, $5
DATA poolCols<>+104(SB)/4, $6
DATA poolCols<>+108(SB)/4, $7
GLOBL poolCols<>(SB), RODATA|NOPTR, $112

// CANDIDATE folds one candidate (values V, input indices I) into the running
// maximum (Y4) and argmax (Y5) exactly as `if v > best` does: VCMPPS
// predicate 0x1E is GT_OQ, false for a NaN on either side and for equal
// values (so +0 does not replace −0, nor a later maximum an earlier one).
#define CANDIDATE(V, I, best, arg, mask) \
	VCMPPS    $0x1E, best, V, mask \
	VBLENDVPS mask, V, best, best  \
	VBLENDVPS mask, I, arg, arg

// POOL8 pools the eight windows at output columns BX…BX+7 of the output row
// at DI/DX, whose top input row starts at element R13. Two loads per input
// row are split into even (kx = 0) and odd (kx = 1) columns; candidates are
// visited in (ky, kx) order, and VPERMPD restores the column order.
#define POOL8 \
	LEAQ         (R13)(BX*2), CX       \
	VMOVD        CX, X11               \
	VPBROADCASTD X11, Y11              \
	VPADDD       Y2, Y11, Y11          \
	VMOVUPS      (SI)(CX*4), Y6        \
	VMOVUPS      32(SI)(CX*4), Y7      \
	VSHUFPS      $0x88, Y7, Y6, Y8     \
	VSHUFPS      $0xDD, Y7, Y6, Y9     \
	VMOVAPS      Y0, Y4                \
	VMOVDQA      Y1, Y5                \
	CANDIDATE(Y8, Y11, Y4, Y5, Y10)    \
	VPSUBD       Y1, Y11, Y12          \
	CANDIDATE(Y9, Y12, Y4, Y5, Y10)    \
	ADDQ         R11, CX               \
	VMOVUPS      (SI)(CX*4), Y6        \
	VMOVUPS      32(SI)(CX*4), Y7      \
	VSHUFPS      $0x88, Y7, Y6, Y8     \
	VSHUFPS      $0xDD, Y7, Y6, Y9     \
	VPADDD       Y3, Y11, Y11          \
	CANDIDATE(Y8, Y11, Y4, Y5, Y10)    \
	VPSUBD       Y1, Y11, Y12          \
	CANDIDATE(Y9, Y12, Y4, Y5, Y10)    \
	VPERMPD      $0xD8, Y4, Y4         \
	VPERMPD      $0xD8, Y5, Y5         \
	VMOVUPS      Y4, (DI)(BX*4)        \
	VMOVDQU      Y5, (DX)(BX*4)

// POOL4 is POOL8 for four windows, on XMM registers.
#define POOL4 \
	LEAQ         (R13)(BX*2), CX       \
	VMOVD        CX, X11               \
	VPBROADCASTD X11, X11              \
	VPADDD       X13, X11, X11         \
	VMOVUPS      (SI)(CX*4), X6        \
	VMOVUPS      16(SI)(CX*4), X7      \
	VSHUFPS      $0x88, X7, X6, X8     \
	VSHUFPS      $0xDD, X7, X6, X9     \
	VMOVAPS      X0, X4                \
	VMOVDQA      X1, X5                \
	CANDIDATE(X8, X11, X4, X5, X10)    \
	VPSUBD       X1, X11, X12          \
	CANDIDATE(X9, X12, X4, X5, X10)    \
	ADDQ         R11, CX               \
	VMOVUPS      (SI)(CX*4), X6        \
	VMOVUPS      16(SI)(CX*4), X7      \
	VSHUFPS      $0x88, X7, X6, X8     \
	VSHUFPS      $0xDD, X7, X6, X9     \
	VPADDD       X3, X11, X11          \
	CANDIDATE(X8, X11, X4, X5, X10)    \
	VPSUBD       X1, X11, X12          \
	CANDIDATE(X9, X12, X4, X5, X10)    \
	VMOVUPS      X4, (DI)(BX*4)        \
	VMOVDQU      X5, (DX)(BX*4)

// func maxPool2x2AVX2(in, out *float32, argmax *int32, planes, h, w, oh, ow int)
//
// Max pool with 2×2 windows at stride 2, no padding, over planes h×w
// planes; oh×ow outputs per plane, ow ≥ 4. argmax receives the flat input
// index of each maximum, −1 (with out −Inf) where no element beats −Inf.
// Rows of 8 or more outputs go 8 at a time, 4–7 outputs 4 at a time; a
// ragged row ends with one group that overlaps the one before it and
// rewrites the same values.
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-64
	MOVQ in+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ argmax+16(FP), DX
	MOVQ planes+24(FP), R8
	MOVQ h+32(FP), R14
	MOVQ w+40(FP), R11
	MOVQ oh+48(FP), R9
	MOVQ ow+56(FP), R10
	IMULQ R11, R14

	VPCMPEQD     Y1, Y1, Y1 // −1: the argmax of a window with no candidate
	VPSLLD       $23, Y1, Y0 // 0xff800000: −Inf
	VMOVDQU      poolCols<>+0(SB), Y2
	VMOVDQU      poolCols<>+32(SB), X13
	VMOVD        R11, X3
	VPBROADCASTD X3, Y3 // w: index step from the top row to the bottom row
	XORQ         R12, R12

poolPlane:
	MOVQ R12, R13
	MOVQ R9, AX

poolRow:
	XORQ BX, BX
	CMPQ R10, $8
	JLT  poolNarrow

poolWide:
	POOL8
	ADDQ $8, BX
	LEAQ 8(BX), CX
	CMPQ CX, R10
	JLE  poolWide
	CMPQ BX, R10
	JEQ  poolNext
	MOVQ R10, BX
	SUBQ $8, BX
	POOL8
	JMP  poolNext

poolNarrow:
	POOL4
	MOVQ R10, BX
	SUBQ $4, BX
	JZ   poolNext
	POOL4

poolNext:
	LEAQ (DI)(R10*4), DI
	LEAQ (DX)(R10*4), DX
	LEAQ (R13)(R11*2), R13
	DECQ AX
	JNZ  poolRow
	ADDQ R14, R12
	DECQ R8
	JNZ  poolPlane
	VZEROUPPER
	RET

// UNPOOL4 writes the input gradient of the four windows at output columns
// BX…BX+3: both rows of their eight input columns, starting at element
// R13 + 2·BX. An element gets 0 + g where its window's argmax names it and
// +0 elsewhere.
#define UNPOOL4 \
	VMOVUPS      (DI)(BX*4), X6  \
	VADDPS       X6, X15, X6     \
	VPERMPS      Y6, Y14, Y6     \
	VMOVDQU      (DX)(BX*4), X7  \
	VPERMD       Y7, Y14, Y7     \
	LEAQ         (R13)(BX*2), CX \
	VMOVD        CX, X8          \
	VPBROADCASTD X8, Y8          \
	VPADDD       Y13, Y8, Y8     \
	VPCMPEQD     Y8, Y7, Y9      \
	VANDPS       Y6, Y9, Y9      \
	VMOVUPS      Y9, (SI)(CX*4)  \
	ADDQ         R11, CX         \
	VPADDD       Y3, Y8, Y8      \
	VPCMPEQD     Y8, Y7, Y9      \
	VANDPS       Y6, Y9, Y9      \
	VMOVUPS      Y9, (SI)(CX*4)

// func maxPool2x2BackwardAVX2(gradOut *float32, argmax *int32, gradIn *float32, planes, h, w, oh, ow int)
//
// The input gradient of maxPool2x2AVX2's pool, ow ≥ 4, for every element
// some window covers; the caller writes the rest. The windows do not
// overlap, so each element is written once (twice, with the same value,
// under a ragged row's overlapping last group) and nothing is accumulated.
TEXT ·maxPool2x2BackwardAVX2(SB), NOSPLIT, $0-64
	MOVQ gradOut+0(FP), DI
	MOVQ argmax+8(FP), DX
	MOVQ gradIn+16(FP), SI
	MOVQ planes+24(FP), R8
	MOVQ h+32(FP), R14
	MOVQ w+40(FP), R11
	MOVQ oh+48(FP), R9
	MOVQ ow+56(FP), R10
	IMULQ R11, R14

	VXORPS       Y15, Y15, Y15
	VMOVDQU      poolCols<>+48(SB), Y14
	VMOVDQU      poolCols<>+80(SB), Y13
	VMOVD        R11, X3
	VPBROADCASTD X3, Y3
	XORQ         R12, R12

unpoolPlane:
	MOVQ R12, R13
	MOVQ R9, AX

unpoolRow:
	XORQ BX, BX

unpoolGroup:
	UNPOOL4
	ADDQ $4, BX
	LEAQ 4(BX), CX
	CMPQ CX, R10
	JLE  unpoolGroup
	CMPQ BX, R10
	JEQ  unpoolNext
	MOVQ R10, BX
	SUBQ $4, BX
	UNPOOL4

unpoolNext:
	LEAQ (DI)(R10*4), DI
	LEAQ (DX)(R10*4), DX
	LEAQ (R13)(R11*2), R13
	DECQ AX
	JNZ  unpoolRow
	ADDQ R14, R12
	DECQ R8
	JNZ  unpoolPlane
	VZEROUPPER
	RET

// func reluAVX2(in, out *float32, n int)
//
// out[i] = in[i] where in[i] > 0 (GT_OQ), else +0, for n a positive
// multiple of 8: the mask is positiveMask's, so −0, negatives and NaNs all
// give +0.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   in+0(FP), SI
	MOVQ   out+8(FP), DI
	MOVQ   n+16(FP), CX
	SHRQ   $3, CX
	VXORPS Y0, Y0, Y0

reluLoop:
	VMOVUPS (SI), Y1
	VCMPPS  $0x1E, Y0, Y1, Y2
	VANDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     reluLoop
	VZEROUPPER
	RET

// func reluBackwardAVX2(fwdIn, gradOut, gradIn *float32, n int)
//
// gradIn[i] = gradOut[i] where fwdIn[i] > 0, else +0, for n a positive
// multiple of 8.
TEXT ·reluBackwardAVX2(SB), NOSPLIT, $0-32
	MOVQ   fwdIn+0(FP), SI
	MOVQ   gradOut+8(FP), DI
	MOVQ   gradIn+16(FP), DX
	MOVQ   n+24(FP), CX
	SHRQ   $3, CX
	VXORPS Y0, Y0, Y0

reluBackLoop:
	VMOVUPS (SI), Y1
	VCMPPS  $0x1E, Y0, Y1, Y2
	VANDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DX)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     reluBackLoop
	VZEROUPPER
	RET

// func addBiasAVX2(dst *float32, n int, b float32)
//
// dst[i] += b for n a positive multiple of 8. dst is the first operand of
// each add, as in the scalar loop, which decides the NaN an add of two
// NaNs returns.
TEXT ·addBiasAVX2(SB), NOSPLIT, $0-20
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS b+16(FP), Y0
	SHRQ         $3, CX

addBiasLoop:
	VMOVUPS (DI), Y1
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     addBiasLoop
	VZEROUPPER
	RET

// func momentumAVX2(param, grad, vel []float32, lr, mu float32)
//
// vel[i] = vel[i]·μ − g[i]·lr, then param[i] = param[i] + vel[i], for the
// len(grad) elements: eight per step, then one at a time with the VEX scalar
// forms. Each operation rounds once, as the scalar loop's MULSS, SUBSS and
// ADDSS do, with the same first operand (which decides the NaN an
// operation on two NaNs returns); nothing is fused, skipped or flushed, so
// a subnormal velocity costs the same microcode assist the scalar loop
// pays, for eight lanes at once.
TEXT ·momentumAVX2(SB), NOSPLIT, $0-80
	MOVQ         param_base+0(FP), DI
	MOVQ         grad_base+24(FP), SI
	MOVQ         grad_len+32(FP), CX
	MOVQ         vel_base+48(FP), DX
	VBROADCASTSS lr+72(FP), Y0
	VBROADCASTSS mu+76(FP), Y1
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           momentumTail

momentumLoop:
	VMOVUPS (DX), Y2
	VMULPS  Y1, Y2, Y2
	VMOVUPS (SI), Y3
	VMULPS  Y0, Y3, Y3
	VSUBPS  Y3, Y2, Y2
	VMOVUPS Y2, (DX)
	VMOVUPS (DI), Y4
	VADDPS  Y2, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    BX
	JNZ     momentumLoop

momentumTail:
	ANDQ $7, CX
	JZ   momentumDone

momentumTailLoop:
	VMOVSS (DX), X2
	VMULSS X1, X2, X2
	VMOVSS (SI), X3
	VMULSS X0, X3, X3
	VSUBSS X3, X2, X2
	VMOVSS X2, (DX)
	VMOVSS (DI), X4
	VADDSS X2, X4, X4
	VMOVSS X4, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	ADDQ   $4, DX
	DECQ   CX
	JNZ    momentumTailLoop

momentumDone:
	VZEROUPPER
	RET

// func sgdAVX2(param, grad []float32, lr float32)
//
// param[i] = param[i] − g[i]·lr for the len(grad) elements, eight per step
// and the rest one at a time, with the scalar loop's two roundings and operand
// order.
TEXT ·sgdAVX2(SB), NOSPLIT, $0-52
	MOVQ         param_base+0(FP), DI
	MOVQ         grad_base+24(FP), SI
	MOVQ         grad_len+32(FP), CX
	VBROADCASTSS lr+48(FP), Y0
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           sgdTail

sgdLoop:
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS (DI), Y2
	VSUBPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    BX
	JNZ     sgdLoop

sgdTail:
	ANDQ $7, CX
	JZ   sgdDone

sgdTailLoop:
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VMOVSS (DI), X2
	VSUBSS X1, X2, X2
	VMOVSS X2, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   CX
	JNZ    sgdTailLoop

sgdDone:
	VZEROUPPER
	RET

// func addScaledAVX2(dst, src []float32, scale float32)
//
// dst[i] = (dst[i] + src[i]) * scale for the len(dst) elements: 32 per
// step, then 8, then one at a time with the VEX scalar forms. dst is each
// add's first operand and the sum each product's, as in the scalar loop,
// and the sum is rounded before it is multiplied. At scale 1 the product
// is the sum's bits: a NaN sum is already quiet, and without FTZ/DAZ x·1
// is x for every other x.
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSS scale+48(FP), Y0
	MOVQ         CX, BX
	SHRQ         $5, BX
	JZ           scaledVectors

scaledBlockLoop:
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	VMOVUPS 64(DI), Y3
	VMOVUPS 96(DI), Y4
	VADDPS  (SI), Y1, Y1
	VADDPS  32(SI), Y2, Y2
	VADDPS  64(SI), Y3, Y3
	VADDPS  96(SI), Y4, Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	DECQ    BX
	JNZ     scaledBlockLoop

scaledVectors:
	MOVQ CX, BX
	ANDQ $31, BX
	SHRQ $3, BX
	JZ   scaledTail

scaledVectorLoop:
	VMOVUPS (DI), Y1
	VADDPS  (SI), Y1, Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    BX
	JNZ     scaledVectorLoop

scaledTail:
	ANDQ $7, CX
	JZ   addScaledDone

scaledTailLoop:
	VMOVSS (DI), X1
	VADDSS (SI), X1, X1
	VMULSS X0, X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   CX
	JNZ    scaledTailLoop

addScaledDone:
	VZEROUPPER
	RET
