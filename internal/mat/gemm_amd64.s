//go:build amd64 && !purego

// amd64 micro-kernels for the packed-panel GEMM core (see gemm.go).
//
// The float64 kernel uses AVX VMULPD/VADDPD — strict IEEE multiply and
// add, no FMA contraction — so every dst element accumulates exactly the
// same sequence of rounded operations as the scalar reference kernels,
// in the same ascending-k order: results are bit-identical, just 4 lanes
// at a time. The float32 and int8 kernels use baseline SSE2 and are
// likewise exact replicas of their scalar counterparts (int32 integer
// accumulation is exact regardless of lane order).

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

// STOREROW64 stores one float64 tile row and leaves once AX rows are out.
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

// STOREROW32 widens one float32 accumulator to a float64 tile row (low
// pair, then high pair) and leaves once AX rows are out.
#define STOREROW32(x) \
	CVTPS2PD x, X9; \
	MOVUPD X9, (DI); \
	MOVHLPS x, X9; \
	CVTPS2PD X9, X9; \
	MOVUPD X9, 16(DI); \
	ADDQ BX, DI; \
	DECQ AX; \
	JZ done32

// func kern8x4SSE32(bp, a *float32, lda int, c *float64, ldc, k, rows int)
//
// Float32 8x4 tile over one packed float32 panel: accumulate in float32
// (MULPS/ADDPS, ascending k — exactly the scalar float32 kernel's
// rounding sequence), convert to float64 at store time; the first rows
// rows are stored, as in kern8x4AVX. Baseline SSE, no feature detection
// needed on amd64.
TEXT ·kern8x4SSE32(SB), NOSPLIT, $0-56
	MOVQ bp+0(FP), SI
	MOVQ a+8(FP), DX
	MOVQ lda+16(FP), AX
	SHLQ $2, AX            // float32 stride in bytes
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), BX
	SHLQ $3, BX            // float64 stride in bytes
	MOVQ k+40(FP), CX

	LEAQ (DX)(AX*1), R8
	LEAQ (DX)(AX*2), R9
	LEAQ (R8)(AX*2), R10
	LEAQ (DX)(AX*4), R11
	LEAQ (R8)(AX*4), R12
	LEAQ (R9)(AX*4), R13
	LEAQ (R10)(AX*4), R14
	MOVQ rows+48(FP), AX
	CLAMPROWS

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	XORQ R15, R15
	TESTQ CX, CX
	JLE  store32

loop32:
	MOVUPS (SI), X8

	MOVSS (DX)(R15*4), X9
	SHUFPS $0x00, X9, X9
	MULPS X8, X9
	ADDPS X9, X0

	MOVSS (R8)(R15*4), X10
	SHUFPS $0x00, X10, X10
	MULPS X8, X10
	ADDPS X10, X1

	MOVSS (R9)(R15*4), X11
	SHUFPS $0x00, X11, X11
	MULPS X8, X11
	ADDPS X11, X2

	MOVSS (R10)(R15*4), X12
	SHUFPS $0x00, X12, X12
	MULPS X8, X12
	ADDPS X12, X3

	MOVSS (R11)(R15*4), X9
	SHUFPS $0x00, X9, X9
	MULPS X8, X9
	ADDPS X9, X4

	MOVSS (R12)(R15*4), X10
	SHUFPS $0x00, X10, X10
	MULPS X8, X10
	ADDPS X10, X5

	MOVSS (R13)(R15*4), X11
	SHUFPS $0x00, X11, X11
	MULPS X8, X11
	ADDPS X11, X6

	MOVSS (R14)(R15*4), X12
	SHUFPS $0x00, X12, X12
	MULPS X8, X12
	ADDPS X12, X7

	ADDQ $16, SI
	INCQ R15
	CMPQ R15, CX
	JLT  loop32

store32:
	STOREROW32(X0)
	STOREROW32(X1)
	STOREROW32(X2)
	STOREROW32(X3)
	STOREROW32(X4)
	STOREROW32(X5)
	STOREROW32(X6)
	STOREROW32(X7)

done32:
	RET

// func kern8x4SSE8(bp *int8, a *int16, lda int, c *int32, ldc, kp int)
//
// Int8 8x4 tile: bp is one pair-interleaved int8 panel (8 bytes per
// k-pair: columns 0..3 of k then k+1 interleaved), a holds int16-widened
// quantized activations consumed two per step, kp counts k-pairs.
// PMADDWL computes a(k)*b(k)+a(k+1)*b(k+1) per column into exact int32
// accumulators — identical to the scalar reference in any order.
TEXT ·kern8x4SSE8(SB), NOSPLIT, $0-48
	MOVQ bp+0(FP), SI
	MOVQ a+8(FP), DX
	MOVQ lda+16(FP), AX
	SHLQ $1, AX            // int16 stride in bytes
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), BX
	SHLQ $2, BX            // int32 stride in bytes
	MOVQ kp+40(FP), CX

	LEAQ (DX)(AX*1), R8
	LEAQ (DX)(AX*2), R9
	LEAQ (R8)(AX*2), R10
	LEAQ (DX)(AX*4), R11
	LEAQ (R8)(AX*4), R12
	LEAQ (R9)(AX*4), R13
	LEAQ (R10)(AX*4), R14

	PXOR X0, X0
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3
	PXOR X4, X4
	PXOR X5, X5
	PXOR X6, X6
	PXOR X7, X7

	XORQ R15, R15
	TESTQ CX, CX
	JLE  store8

loop8:
	// widen 8 panel bytes (one k-pair, 4 interleaved columns) to int16
	MOVQ (SI), X8
	PUNPCKLBW X8, X8
	PSRAW $8, X8

	MOVSS (DX)(R15*4), X9
	PSHUFD $0x00, X9, X9
	PMADDWL X8, X9
	PADDD X9, X0

	MOVSS (R8)(R15*4), X10
	PSHUFD $0x00, X10, X10
	PMADDWL X8, X10
	PADDD X10, X1

	MOVSS (R9)(R15*4), X11
	PSHUFD $0x00, X11, X11
	PMADDWL X8, X11
	PADDD X11, X2

	MOVSS (R10)(R15*4), X12
	PSHUFD $0x00, X12, X12
	PMADDWL X8, X12
	PADDD X12, X3

	MOVSS (R11)(R15*4), X9
	PSHUFD $0x00, X9, X9
	PMADDWL X8, X9
	PADDD X9, X4

	MOVSS (R12)(R15*4), X10
	PSHUFD $0x00, X10, X10
	PMADDWL X8, X10
	PADDD X10, X5

	MOVSS (R13)(R15*4), X11
	PSHUFD $0x00, X11, X11
	PMADDWL X8, X11
	PADDD X11, X6

	MOVSS (R14)(R15*4), X12
	PSHUFD $0x00, X12, X12
	PMADDWL X8, X12
	PADDD X12, X7

	ADDQ $8, SI
	INCQ R15
	CMPQ R15, CX
	JLT  loop8

store8:
	MOVOU X0, (DI)
	MOVOU X1, (DI)(BX*1)
	LEAQ (DI)(BX*2), DI
	MOVOU X2, (DI)
	MOVOU X3, (DI)(BX*1)
	LEAQ (DI)(BX*2), DI
	MOVOU X4, (DI)
	MOVOU X5, (DI)(BX*1)
	LEAQ (DI)(BX*2), DI
	MOVOU X6, (DI)
	MOVOU X7, (DI)(BX*1)
	RET

