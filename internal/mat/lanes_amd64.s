//go:build amd64 && !purego

// amd64 kernels for the lane-parallel sparse GEMM (see lanes.go).
//
// One call runs one column group against one lane-major xt block. Per
// stored weight: load its k-index, load xt row k, and VFMADD231PD the
// broadcast value with it into the column's accumulator — one fused
// multiply-add per register, one rounding per weight, ascending k per
// column: the rounding sequence of math.FMA in laneKernGo, so results
// are bit-identical to it. The four columns of a step feed four
// independent accumulator chains.
//
// Operand forms, re-measured for FMA (interleaved in one process,
// GOMAXPROCS 1, median call, 192->768, 768->192 and 192->192 at sparsity
// 0.3 and 0.7, Sapphire Rapids): with two registers per xt row, loading
// both halves and one register broadcast feeding two register FMAs is
// within 3% of taking xt as the FMA's memory operand and 4-12% faster
// than two broadcast-operand FMAs. With one ZMM per xt row the
// broadcast-operand form (VFMADD231PD.BCST, four instructions per
// weight) measured 0-8% faster than the other two, which agree within 2%.
//
// The three kernels are one loop at three register shapes: two YMM per
// xt row (AVX, 8 lanes), two ZMM (AVX-512F, 16 lanes: every index and
// value load feeds twice the batch rows), one ZMM (AVX-512F, 8 lanes).
// They share the signature, the spill layout and the scatter.

#include "textflag.h"
#include "pack_amd64.h"

// LANE2 consumes one stored weight of column j against an xt row of two
// registers, half bytes each (row stride 1<<sh bytes): broadcast into b,
// accumulators lo (first half of the lanes) and hi.
#define LANE2(j, sh, half, b, t0, t1, lo, hi) \
	MOVWLZX (2*j)(SI), R8; \
	SHLQ $sh, R8; \
	VBROADCASTSD (8*j)(DI), b; \
	VMOVUPD (DX)(R8*1), t0; \
	VMOVUPD half(DX)(R8*1), t1; \
	VFMADD231PD t0, b, lo; \
	VFMADD231PD t1, b, hi

#define LANE8(j, lo, hi) LANE2(j, 6, 32, Y8, Y9, Y10, lo, hi)
#define LANE16Z(j, lo, hi) LANE2(j, 7, 64, Z8, Z9, Z10, lo, hi)

// LANE8Z is LANE8 with the 8 lanes in one register, the value broadcast
// by the FMA from its memory operand.
#define LANE8Z(j, acc) \
	MOVWLZX (2*j)(SI), R8; \
	SHLQ $6, R8; \
	VMOVUPD (DX)(R8*1), Z9; \
	VFMADD231PD.BCST (8*j)(DI), Z9, acc

// ENTER loads the stream arguments every kernel walks: idx in SI, val in
// DI, steps in CX, xt in DX.
#define ENTER \
	MOVQ idx+0(FP), SI; \
	MOVQ val+8(FP), DI; \
	MOVQ steps+16(FP), CX; \
	MOVQ xt+24(FP), DX

// STEP advances the streams by one step of four weights and loops.
#define STEP(loop) \
	ADDQ $8, SI; \
	ADDQ $32, DI; \
	DECQ CX; \
	JNZ  loop

// SCATTER ends a kernel: the first `rows` lanes of the four column
// accumulators, spilled at 0(SP) stride bytes apart, go to dst rows c,
// c+ldc, ... at the four columns listed at cols.
#define SCATTER(stride) \
	VZEROUPPER; \
	MOVQ c+32(FP), DI; \
	MOVQ ldc+40(FP), BX; \
	SHLQ $3, BX; \
	MOVQ cols+48(FP), R9; \
	MOVQ rows+56(FP), AX; \
	MOVLQSX 0(R9), R12; \
	MOVLQSX 4(R9), R13; \
	MOVLQSX 8(R9), R14; \
	MOVLQSX 12(R9), R15; \
	LEAQ (DI)(R12*8), R12; \
	LEAQ (DI)(R13*8), R13; \
	LEAQ (DI)(R14*8), R14; \
	LEAQ (DI)(R15*8), R15; \
	MOVQ SP, SI; \
scatter: \
	MOVQ 0(SI), R8; \
	MOVQ R8, (R12); \
	MOVQ stride(SI), R8; \
	MOVQ R8, (R13); \
	MOVQ (2*stride)(SI), R8; \
	MOVQ R8, (R14); \
	MOVQ (3*stride)(SI), R8; \
	MOVQ R8, (R15); \
	ADDQ $8, SI; \
	ADDQ BX, R12; \
	ADDQ BX, R13; \
	ADDQ BX, R14; \
	ADDQ BX, R15; \
	DECQ AX; \
	JNZ  scatter; \
	RET

// func laneKern8AVX(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int)
//
// c[r][cols[j]] for r < rows, j < 4: the group's four columns against
// an 8-lane xt block. Y0/Y1 .. Y6/Y7 accumulate columns 0..3.
TEXT ·laneKern8AVX(SB), NOSPLIT, $256-64
	ENTER
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

loop:
	LANE8(0, Y0, Y1)
	LANE8(1, Y2, Y3)
	LANE8(2, Y4, Y5)
	LANE8(3, Y6, Y7)
	STEP(loop)

	VMOVUPD Y0, 0(SP)
	VMOVUPD Y1, 32(SP)
	VMOVUPD Y2, 64(SP)
	VMOVUPD Y3, 96(SP)
	VMOVUPD Y4, 128(SP)
	VMOVUPD Y5, 160(SP)
	VMOVUPD Y6, 192(SP)
	VMOVUPD Y7, 224(SP)
	SCATTER(64)

// func laneKern16Z(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int)
//
// laneKern8AVX one register wider: a 16-lane xt block (row stride 128
// bytes), rows <= 16. Z0/Z1 .. Z6/Z7 accumulate columns 0..3.
TEXT ·laneKern16Z(SB), NOSPLIT, $512-64
	ENTER
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

loop:
	LANE16Z(0, Z0, Z1)
	LANE16Z(1, Z2, Z3)
	LANE16Z(2, Z4, Z5)
	LANE16Z(3, Z6, Z7)
	STEP(loop)

	VMOVUPD Z0, 0(SP)
	VMOVUPD Z1, 64(SP)
	VMOVUPD Z2, 128(SP)
	VMOVUPD Z3, 192(SP)
	VMOVUPD Z4, 256(SP)
	VMOVUPD Z5, 320(SP)
	VMOVUPD Z6, 384(SP)
	VMOVUPD Z7, 448(SP)
	SCATTER(128)

// func laneKern8Z(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int)
//
// laneKern8AVX with one ZMM per column: the same 8-lane xt block, half
// the multiply-adds per weight. Z0 .. Z3 accumulate columns 0..3.
TEXT ·laneKern8Z(SB), NOSPLIT, $256-64
	ENTER
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

loop:
	LANE8Z(0, Z0)
	LANE8Z(1, Z1)
	LANE8Z(2, Z2)
	LANE8Z(3, Z3)
	STEP(loop)

	VMOVUPD Z0, 0(SP)
	VMOVUPD Z1, 64(SP)
	VMOVUPD Z2, 128(SP)
	VMOVUPD Z3, 192(SP)
	SCATTER(64)

// func packLanes8Z(xt, x *float64, K, lanes, rows, kn int)
//
// xt[k*lanes+l] = x[min(l, rows-1)*K+k] for l < 8 and k < kn, a positive
// multiple of 8: 8 lanes of a lane-major block (row stride lanes) from
// 1-8 rows of x (row stride K). Per 8 k: 8 row loads, an 8x8 transpose
// in registers and 8 full-line stores. The unpacks pair rows 2i and
// 2i+1 per k in each 128-bit block (t0 = (r0,r1) at k 0,2,4,6, t1 at
// k 1,3,5,7, ...); two stages of 128-bit block shuffles then gather the
// four pairs of one k into one register.
TEXT ·packLanes8Z(SB), NOSPLIT, $0-48
	MOVQ xt+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ K+16(FP), BX
	SHLQ $3, BX
	MOVQ lanes+24(FP), DX
	SHLQ $3, DX
	MOVQ rows+32(FP), CX
	MOVQ kn+40(FP), R12
	DECQ CX
	NEXTROW(SI, AX)
	NEXTROW(AX, R8)
	NEXTROW(R8, R9)
	NEXTROW(R9, R10)
	NEXTROW(R10, R11)
	NEXTROW(R11, R13)
	NEXTROW(R13, R14)
	LEAQ (DX)(DX*2), R15
	XORQ CX, CX

pack:
	VMOVUPD (SI)(CX*1), Z0
	VMOVUPD (AX)(CX*1), Z1
	VMOVUPD (R8)(CX*1), Z2
	VMOVUPD (R9)(CX*1), Z3
	VMOVUPD (R10)(CX*1), Z4
	VMOVUPD (R11)(CX*1), Z5
	VMOVUPD (R13)(CX*1), Z6
	VMOVUPD (R14)(CX*1), Z7
	TRANSPOSE8
	VMOVUPD Z8, (DI)
	VMOVUPD Z9, (DI)(DX*1)
	VMOVUPD Z10, (DI)(DX*2)
	VMOVUPD Z11, (DI)(R15*1)
	LEAQ (DI)(DX*4), BX
	VMOVUPD Z12, (BX)
	VMOVUPD Z13, (BX)(DX*1)
	VMOVUPD Z14, (BX)(DX*2)
	VMOVUPD Z15, (BX)(R15*1)
	LEAQ (BX)(DX*4), DI
	ADDQ $64, CX
	SUBQ $8, R12
	JNZ  pack
	VZEROUPPER
	RET
