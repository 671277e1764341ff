//go:build amd64 && !purego

// amd64 micro-kernels for the packed-panel GEMM core (see gemm.go).
//
// The tile kernel uses AVX VMULPD/VADDPD — strict IEEE multiply and
// add, no FMA contraction — so every dst element accumulates exactly the
// same sequence of rounded operations as the scalar reference kernels,
// in the same ascending-k order: results are bit-identical, just 4 lanes
// at a time.

#include "textflag.h"

// func cpuHasAVX() bool
//
// CPUID leaf 1: ECX bit 28 = AVX, bit 27 = OSXSAVE; then XGETBV XCR0
// bits 1|2 confirm the OS saves YMM state.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	MOVL CX, DX
	ANDL $(1<<27 | 1<<28), DX
	CMPL DX, $(1<<27 | 1<<28)
	JNE  noavx
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func cpuid7EBX() uint32
//
// CPUID leaf 7 subleaf 0 EBX, the extended feature bits (5 = AVX2, 16 =
// AVX512F); 0 when leaf 0 reports a maximum leaf below 7, where leaf 7
// would return the data of the highest leaf instead.
TEXT ·cpuid7EBX(SB), NOSPLIT, $0-4
	MOVL $0, AX
	CPUID
	MOVL $0, BX
	CMPL AX, $7
	JLT  done
	MOVL $7, AX
	MOVL $0, CX
	CPUID

done:
	MOVL BX, ret+0(FP)
	RET

// func xcr0() uint32
//
// XGETBV XCR0, low half: the register states the OS saves. Faults
// without OSXSAVE, which hasAVX has checked.
TEXT ·xcr0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// CLAMPROWS points the row pointers R8..R14 (rows 1..7) of a short
// block back at row 0 (DX): the tile always computes 8 rows, rows past
// AX = `rows` recompute row 0 and are never stored.
#define CLAMPROWS \
	CMPQ AX, $1; CMOVQLE DX, R8; \
	CMPQ AX, $2; CMOVQLE DX, R9; \
	CMPQ AX, $3; CMOVQLE DX, R10; \
	CMPQ AX, $4; CMOVQLE DX, R11; \
	CMPQ AX, $5; CMOVQLE DX, R12; \
	CMPQ AX, $6; CMOVQLE DX, R13; \
	CMPQ AX, $7; CMOVQLE DX, R14

// STOREROW64 stores one tile row and leaves once AX rows are out.
#define STOREROW64(y) \
	VMOVUPD y, (DI); \
	ADDQ BX, DI; \
	DECQ AX; \
	JZ done8x4

// func kern8x4AVX(bp, a *float64, lda int, c *float64, ldc, k, rows int)
//
// One 8-row x 4-column accumulator tile: c[r][j] = sum_k a[r*lda+k] *
// bp[4k+j] for r in 0..rows, j in 0..4, 1 <= rows <= 8. bp is one packed
// K-major panel; lda/ldc are element strides. Eight YMM accumulators,
// one panel load and eight broadcast-multiply-adds per k step.
TEXT ·kern8x4AVX(SB), NOSPLIT, $0-56
	MOVQ bp+0(FP), SI
	MOVQ a+8(FP), DX
	MOVQ lda+16(FP), AX
	SHLQ $3, AX            // stride in bytes
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), BX
	SHLQ $3, BX
	MOVQ k+40(FP), CX

	// row pointers r0..r7: DX, R8..R14
	LEAQ (DX)(AX*1), R8
	LEAQ (DX)(AX*2), R9
	LEAQ (R8)(AX*2), R10
	LEAQ (DX)(AX*4), R11
	LEAQ (R8)(AX*4), R12
	LEAQ (R9)(AX*4), R13
	LEAQ (R10)(AX*4), R14
	MOVQ rows+48(FP), AX
	CLAMPROWS

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	XORQ R15, R15
	TESTQ CX, CX
	JLE  store8x4

loop8x4:
	VMOVUPD (SI), Y8

	VBROADCASTSD (DX)(R15*8), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y0, Y0

	VBROADCASTSD (R8)(R15*8), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y1, Y1

	VBROADCASTSD (R9)(R15*8), Y11
	VMULPD Y8, Y11, Y11
	VADDPD Y11, Y2, Y2

	VBROADCASTSD (R10)(R15*8), Y12
	VMULPD Y8, Y12, Y12
	VADDPD Y12, Y3, Y3

	VBROADCASTSD (R11)(R15*8), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y4, Y4

	VBROADCASTSD (R12)(R15*8), Y10
	VMULPD Y8, Y10, Y10
	VADDPD Y10, Y5, Y5

	VBROADCASTSD (R13)(R15*8), Y11
	VMULPD Y8, Y11, Y11
	VADDPD Y11, Y6, Y6

	VBROADCASTSD (R14)(R15*8), Y12
	VMULPD Y8, Y12, Y12
	VADDPD Y12, Y7, Y7

	ADDQ $32, SI
	INCQ R15
	CMPQ R15, CX
	JLT  loop8x4

store8x4:
	STOREROW64(Y0)
	STOREROW64(Y1)
	STOREROW64(Y2)
	STOREROW64(Y3)
	STOREROW64(Y4)
	STOREROW64(Y5)
	STOREROW64(Y6)
	STOREROW64(Y7)

done8x4:
	VZEROUPPER
	RET
