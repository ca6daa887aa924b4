#include "textflag.h"

// The convolution lowering's data movement. Neither routine rounds anything
// the pure-Go loops do not: the panel writer only moves bits, and the
// Col2Im row add makes each element's one VADDPS (or VADDSS) rounding.
// Every instruction is VEX-encoded and every routine ends with VZEROUPPER.
// (The file sorts after gemm_amd64.s, so the linker lays these routines
// out after the GEMM tile, which keeps its place mod 64.)

// RUN loads one more run of a panel row, its lanes under masks m0 and m1
// (+0 elsewhere), from the run's start r plus the row's base (SI floats),
// into t0 and t1 and merges it into the row in Y0 and Y1. The runs' masks
// are disjoint, so each lane ORs its one value with +0 bits: exact.
#define RUN(r, m0, m1, t0, t1) \
	VMASKMOVPS (r)(SI*4), m0, t0   \
	VMASKMOVPS 32(r)(SI*4), m1, t1 \
	VORPS      t0, Y0, Y0          \
	VORPS      t1, Y1, Y1

// ROW loads the next row's base into SI and its first run into Y0 and Y1.
#define ROW \
	MOVQ       (BX), SI             \
	VMASKMOVPS (R8)(SI*4), Y8, Y0   \
	VMASKMOVPS 32(R8)(SI*4), Y9, Y1

// NEXTROW stores the row and steps to the next one, setting the flags from
// the rows left.
#define NEXTROW \
	VMOVUPS Y0, (DI)   \
	VMOVUPS Y1, 32(DI) \
	ADDQ    $8, BX     \
	ADDQ    $64, DI    \
	DECQ    CX

// func copyRunsAVX2(dst, p *float32, base *int, n, runs int, src *[maxRuns]int, mask *[maxRuns][packNR]int32)
//
// n rows of sixteen floats, row i's base read from base[i]: each run's
// start (p + src[r], in R8–R11) and its two masks (Y8–Y15) stay in
// registers, and one loop per run count moves every row. A masked-out lane
// is neither read nor faulted on, so a run may sit at either end of its
// image, and a start past the runs in use is never dereferenced.
TEXT ·copyRunsAVX2(SB), NOSPLIT, $0-56
	MOVQ    dst+0(FP), DI
	MOVQ    p+8(FP), SI
	MOVQ    base+16(FP), BX
	MOVQ    n+24(FP), CX
	MOVQ    runs+32(FP), R12
	MOVQ    src+40(FP), DX
	MOVQ    mask+48(FP), AX
	MOVQ    0(DX), R8
	MOVQ    8(DX), R9
	MOVQ    16(DX), R10
	MOVQ    24(DX), R11
	LEAQ    (SI)(R8*4), R8
	LEAQ    (SI)(R9*4), R9
	LEAQ    (SI)(R10*4), R10
	LEAQ    (SI)(R11*4), R11
	VMOVUPS 0(AX), Y8
	VMOVUPS 32(AX), Y9
	VMOVUPS 64(AX), Y10
	VMOVUPS 96(AX), Y11
	VMOVUPS 128(AX), Y12
	VMOVUPS 160(AX), Y13
	VMOVUPS 192(AX), Y14
	VMOVUPS 224(AX), Y15
	TESTQ   CX, CX
	JZ      runsDone
	CMPQ    R12, $2
	JLT     runs1
	JEQ     runs2
	CMPQ    R12, $4
	JLT     runs3

runs4:
	ROW
	RUN(R9, Y10, Y11, Y2, Y3)
	RUN(R10, Y12, Y13, Y4, Y5)
	RUN(R11, Y14, Y15, Y6, Y7)
	NEXTROW
	JNZ runs4
	JMP runsDone

runs3:
	ROW
	RUN(R9, Y10, Y11, Y2, Y3)
	RUN(R10, Y12, Y13, Y4, Y5)
	NEXTROW
	JNZ runs3
	JMP runsDone

runs2:
	ROW
	RUN(R9, Y10, Y11, Y2, Y3)
	NEXTROW
	JNZ runs2
	JMP runsDone

runs1:
	ROW
	NEXTROW
	JNZ runs1

runsDone:
	VZEROUPPER
	RET

// func col2ImRowsAVX2(dst, src *float32, n, rows, dstStep, srcStep int)
//
// rows spans of n floats, dst[i] += src[i]: eight at a time, then four,
// then one at a time with the VEX scalar forms, touching nothing past the
// span. (A masked load, add and store for the last n mod 8 made LeNet's
// conv2 dX 25–55 % slower; its next row's loads overlap that store.) dst is
// each add's first operand, as gc compiles the scalar loop, and every
// element is added once, in order.
TEXT ·col2ImRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	MOVQ    rows+24(FP), DX
	MOVQ    dstStep+32(FP), R8
	MOVQ    srcStep+40(FP), R9
	SHLQ    $2, R8
	SHLQ    $2, R9
	MOVQ    CX, R10
	ANDQ    $7, R10
	SHRQ    $3, CX

col2ImRow:
	XORQ  BX, BX
	MOVQ  CX, R11
	TESTQ R11, R11
	JZ    col2ImTail

col2ImVec:
	VMOVUPS (DI)(BX*1), Y0
	VADDPS  (SI)(BX*1), Y0, Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ    $32, BX
	DECQ    R11
	JNZ     col2ImVec

col2ImTail:
	MOVQ    R10, R11
	CMPQ    R11, $4
	JLT     col2ImScalar
	VMOVUPS (DI)(BX*1), X0
	VADDPS  (SI)(BX*1), X0, X0
	VMOVUPS X0, (DI)(BX*1)
	ADDQ    $16, BX
	SUBQ    $4, R11

col2ImScalar:
	TESTQ  R11, R11
	JZ     col2ImNext
	VMOVSS (DI)(BX*1), X0
	VADDSS (SI)(BX*1), X0, X0
	VMOVSS X0, (DI)(BX*1)
	ADDQ   $4, BX
	DECQ   R11
	JMP    col2ImScalar

col2ImNext:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ DX
	JNZ  col2ImRow
	VZEROUPPER
	RET
