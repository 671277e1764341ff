//go:build amd64 && !purego

// amd64 kernels for the lane-parallel sparse GEMM (see lanes.go).
//
// One call runs one column group against one lane-major xt block. Per
// stored weight: load its k-index, broadcast its value, VMULPD it into
// the lanes of xt row k, VADDPD the products into the column's
// accumulator. Strict multiply then add, ascending k per column — the
// rounding sequence of the scalar reference, so results are
// bit-identical to it. The four columns of a step feed four independent
// accumulator chains. Separate loads with register-register multiplies
// measured faster here than memory-operand multiplies.

#include "textflag.h"

// LANE8 consumes one stored weight of column j against the 8 lanes:
// accumulators lo (lanes 0-3) and hi (lanes 4-7).
#define LANE8(j, lo, hi) \
	MOVWLZX (2*j)(SI), R8; \
	SHLQ $6, R8; \
	VBROADCASTSD (8*j)(DI), Y8; \
	VMOVUPD (DX)(R8*1), Y9; \
	VMOVUPD 32(DX)(R8*1), Y10; \
	VMULPD Y9, Y8, Y9; \
	VMULPD Y10, Y8, Y10; \
	VADDPD Y9, lo, lo; \
	VADDPD Y10, hi, hi

// func laneKern8AVX(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int)
//
// c[r][cols[j]] for r < rows, j < 4: the group's four columns against
// an 8-lane xt block. Y0/Y1 .. Y6/Y7 accumulate columns 0..3.
TEXT ·laneKern8AVX(SB), NOSPLIT, $256-64
	MOVQ idx+0(FP), SI
	MOVQ val+8(FP), DI
	MOVQ steps+16(FP), CX
	MOVQ xt+24(FP), DX

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
	ADDQ $8, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, 0(SP)
	VMOVUPD Y1, 32(SP)
	VMOVUPD Y2, 64(SP)
	VMOVUPD Y3, 96(SP)
	VMOVUPD Y4, 128(SP)
	VMOVUPD Y5, 160(SP)
	VMOVUPD Y6, 192(SP)
	VMOVUPD Y7, 224(SP)
	VZEROUPPER
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), BX
	SHLQ $3, BX
	MOVQ cols+48(FP), R9
	MOVQ rows+56(FP), AX

	// scatter: the first AX lanes of the four column accumulators spilled
	// at 0(SP), 64 bytes apart, go to dst rows DI, DI+BX, ... at the four
	// columns listed at R9
	MOVLQSX 0(R9), R12
	MOVLQSX 4(R9), R13
	MOVLQSX 8(R9), R14
	MOVLQSX 12(R9), R15
	LEAQ (DI)(R12*8), R12
	LEAQ (DI)(R13*8), R13
	LEAQ (DI)(R14*8), R14
	LEAQ (DI)(R15*8), R15
	MOVQ SP, SI
scatter:
	MOVQ 0(SI), R8
	MOVQ R8, (R12)
	MOVQ 64(SI), R8
	MOVQ R8, (R13)
	MOVQ 128(SI), R8
	MOVQ R8, (R14)
	MOVQ 192(SI), R8
	MOVQ R8, (R15)
	ADDQ $8, SI
	ADDQ BX, R12
	ADDQ BX, R13
	ADDQ BX, R14
	ADDQ BX, R15
	DECQ AX
	JNZ  scatter
	RET
