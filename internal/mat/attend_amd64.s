//go:build amd64 && !purego

// amd64 kernel of the attention core (see attend.go).
//
// One call is a row vector times a strided row-major matrix, 16 output
// columns at a time: per row i, broadcast a[i], load the row's 16
// columns, VMULPD, VADDPD into four 4-lane accumulators. Strict
// multiply then add in ascending i per column, then one multiply by
// scale — the rounding sequence of the scalar loop, so results are
// bit-identical to it. The four accumulators are four independent add
// chains, which is what hides the add latency a single dot product
// serializes on.

#include "textflag.h"

// func vecMat16AVX(dst, a *float64, n int, b *float64, stride, cols int, scale float64)
TEXT ·vecMat16AVX(SB), NOSPLIT, $128-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), DX
	MOVQ stride+32(FP), BX
	SHLQ $3, BX
	MOVQ cols+40(FP), AX
	VBROADCASTSD scale+48(FP), Y12

block:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, R8
	MOVQ DX, R9
	MOVQ CX, R10

row:
	VBROADCASTSD (R8), Y8
	VMOVUPD (R9), Y4
	VMOVUPD 32(R9), Y5
	VMOVUPD 64(R9), Y6
	VMOVUPD 96(R9), Y7
	VMULPD Y4, Y8, Y4
	VMULPD Y5, Y8, Y5
	VMULPD Y6, Y8, Y6
	VMULPD Y7, Y8, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ $8, R8
	ADDQ BX, R9
	DECQ R10
	JNZ  row

	VMULPD Y12, Y0, Y0
	VMULPD Y12, Y1, Y1
	VMULPD Y12, Y2, Y2
	VMULPD Y12, Y3, Y3
	CMPQ AX, $16
	JLT  tail
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, AX
	JNZ  block
	VZEROUPPER
	RET

tail:
	// the last block holds AX < 16 real columns: spill the accumulators
	// and store only those
	VMOVUPD Y0, 0(SP)
	VMOVUPD Y1, 32(SP)
	VMOVUPD Y2, 64(SP)
	VMOVUPD Y3, 96(SP)
	VZEROUPPER
	MOVQ SP, SI
copy:
	MOVQ (SI), R8
	MOVQ R8, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ AX
	JNZ  copy
	RET
