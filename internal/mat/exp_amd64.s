//go:build amd64 && !purego

// amd64 kernels of the vector math in exp.go: exp under softmax and
// GELU, and the residual + layer-norm row.
//
// Each kernel is the portable loop of exp.go operation for operation —
// strict VMULPD / VADDPD / VSUBPD / VDIVPD, never a fused multiply-add,
// the constants read from the table the portable code reads — so every
// lane holds the bits the scalar code computes for that element. Lanes
// never mix except in the one fixed reduction order of the row norm
// (REDUCE below, sum16 in exp.go).

#include "textflag.h"

// HORNER is one step p = p*r + c of both chains: c at byte offset off of
// the table (R8), p in Y4/Y5, r in Y6/Y7.
#define HORNER(off) \
	VBROADCASTSD off(R8), Y15; \
	VMULPD Y6, Y4, Y4; \
	VMULPD Y7, Y5, Y5; \
	VADDPD Y15, Y4, Y4; \
	VADDPD Y15, Y5, Y5

// EXP8 replaces the eight x of Y0/Y1 by Exp(x), the steps of Exp in
// order: t = x*log2e + magic, k = t - magic, r = x - k*ln2Hi - k*ln2Lo,
// thirteen Horner steps, the exponent add of t's low bits, then the three
// special cases by mask (x < -708 clears, x > 709 takes +Inf, NaN takes
// x). Two independent chains interleave so the multiply and add latencies
// overlap. Clobbers Y2-Y7 and Y15; R8 is the table.
#define EXP8 \
	VBROADCASTSD 0(R8), Y15; \
	VMULPD Y15, Y0, Y2; \
	VMULPD Y15, Y1, Y3; \
	VBROADCASTSD 8(R8), Y15; \
	VADDPD Y15, Y2, Y2; \
	VADDPD Y15, Y3, Y3; \
	VSUBPD Y15, Y2, Y4; \
	VSUBPD Y15, Y3, Y5; \
	VBROADCASTSD 16(R8), Y15; \
	VMULPD Y15, Y4, Y6; \
	VMULPD Y15, Y5, Y7; \
	VSUBPD Y6, Y0, Y6; \
	VSUBPD Y7, Y1, Y7; \
	VBROADCASTSD 24(R8), Y15; \
	VMULPD Y15, Y4, Y4; \
	VMULPD Y15, Y5, Y5; \
	VSUBPD Y4, Y6, Y6; \
	VSUBPD Y5, Y7, Y7; \
	VBROADCASTSD 32(R8), Y4; \
	VMOVAPD Y4, Y5; \
	HORNER(40); \
	HORNER(48); \
	HORNER(56); \
	HORNER(64); \
	HORNER(72); \
	HORNER(80); \
	HORNER(88); \
	HORNER(96); \
	HORNER(104); \
	HORNER(112); \
	HORNER(120); \
	HORNER(128); \
	HORNER(128); \
	VPSLLQ $52, Y2, Y2; \
	VPSLLQ $52, Y3, Y3; \
	VPADDQ Y2, Y4, Y4; \
	VPADDQ Y3, Y5, Y5; \
	VBROADCASTSD 136(R8), Y15; \
	VCMPPD $0x11, Y15, Y0, Y2; \
	VCMPPD $0x11, Y15, Y1, Y3; \
	VANDNPD Y4, Y2, Y4; \
	VANDNPD Y5, Y3, Y5; \
	VBROADCASTSD 144(R8), Y15; \
	VCMPPD $0x1E, Y15, Y0, Y2; \
	VCMPPD $0x1E, Y15, Y1, Y3; \
	VBROADCASTSD 152(R8), Y15; \
	VBLENDVPD Y2, Y15, Y4, Y4; \
	VBLENDVPD Y3, Y15, Y5, Y5; \
	VCMPPD $3, Y0, Y0, Y2; \
	VCMPPD $3, Y1, Y1, Y3; \
	VBLENDVPD Y2, Y0, Y4, Y0; \
	VBLENDVPD Y3, Y1, Y5, Y1

// func expSub8AVX(dst, src *float64, n int, shift float64, tab *float64)
TEXT ·expSub8AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD shift+24(FP), Y14
	MOVQ tab+32(FP), R8

expblock:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VSUBPD Y14, Y0, Y0
	VSUBPD Y14, Y1, Y1
	EXP8
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ  expblock
	VZEROUPPER
	RET

// func gelu8AVX(dst, src *float64, n int, tab *float64)
//
// v stays in Y10/Y11 across the exp: z = -2*GELUScale * (v +
// ((GELUCubic*v)*v)*v), then v / (1 + Exp(z)).
TEXT ·gelu8AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), R8

gelublock:
	VMOVUPD (SI), Y10
	VMOVUPD 32(SI), Y11
	VBROADCASTSD 160(R8), Y15
	VMULPD Y15, Y10, Y0
	VMULPD Y15, Y11, Y1
	VMULPD Y10, Y0, Y0
	VMULPD Y11, Y1, Y1
	VMULPD Y10, Y0, Y0
	VMULPD Y11, Y1, Y1
	VADDPD Y10, Y0, Y0
	VADDPD Y11, Y1, Y1
	VBROADCASTSD 168(R8), Y15
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	EXP8
	VBROADCASTSD 128(R8), Y15
	VADDPD Y15, Y0, Y0
	VADDPD Y15, Y1, Y1
	VDIVPD Y0, Y10, Y0
	VDIVPD Y1, Y11, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ  gelublock
	VZEROUPPER
	RET

// REDUCE folds the sixteen partial sums of Y0-Y3 (partial j in lane j
// mod 4 of register j div 4) into the low lane of X0, in sum16's order:
// t[l] = (p[l] + p[l+4]) + (p[l+8] + p[l+12]), then (t0 + t2) + (t1 + t3).
#define REDUCE \
	VADDPD Y1, Y0, Y0; \
	VADDPD Y3, Y2, Y2; \
	VADDPD Y2, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X2; \
	VADDPD X2, X0, X0; \
	VUNPCKHPD X0, X0, X2; \
	VADDSD X2, X0, X0

#define ZERO4 \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3

#define LOAD4(p) \
	VMOVUPD (p), Y4; \
	VMOVUPD 32(p), Y5; \
	VMOVUPD 64(p), Y6; \
	VMOVUPD 96(p), Y7

#define STORE4(p) \
	VMOVUPD Y4, (p); \
	VMOVUPD Y5, 32(p); \
	VMOVUPD Y6, 64(p); \
	VMOVUPD Y7, 96(p)

// ACC4 adds the block in Y4-Y7 into the partial sums.
#define ACC4 \
	VADDPD Y4, Y0, Y0; \
	VADDPD Y5, Y1, Y1; \
	VADDPD Y6, Y2, Y2; \
	VADDPD Y7, Y3, Y3

// func normRow16AVX(out, xhat, x, res, gamma, beta *float64, n int, eps float64) float64
//
// Three passes over one row, NormBlock elements at a time, xhat holding
// the row between them: s = x + res and its sum; d = s - mean and the
// sum of d*d; xhat = d*inv and out = xhat*gamma + beta.
TEXT ·normRow16AVX(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ res+24(FP), BX
	MOVQ gamma+32(FP), R8
	MOVQ beta+40(FP), R9
	MOVQ n+48(FP), CX
	VCVTSI2SDQ CX, X9, X9

	ZERO4
	MOVQ SI, R10
	MOVQ CX, R11
	TESTQ BX, BX
	JZ   sumx

sumres:
	LOAD4(DX)
	VADDPD (BX), Y4, Y4
	VADDPD 32(BX), Y5, Y5
	VADDPD 64(BX), Y6, Y6
	VADDPD 96(BX), Y7, Y7
	STORE4(R10)
	ACC4
	ADDQ $128, DX
	ADDQ $128, BX
	ADDQ $128, R10
	SUBQ $16, R11
	JNZ  sumres
	JMP  mean

sumx:
	LOAD4(DX)
	STORE4(R10)
	ACC4
	ADDQ $128, DX
	ADDQ $128, R10
	SUBQ $16, R11
	JNZ  sumx

mean:
	REDUCE
	VDIVSD X9, X0, X0
	VBROADCASTSD X0, Y8

	ZERO4
	MOVQ SI, R10
	MOVQ CX, R11

centre:
	LOAD4(R10)
	VSUBPD Y8, Y4, Y4
	VSUBPD Y8, Y5, Y5
	VSUBPD Y8, Y6, Y6
	VSUBPD Y8, Y7, Y7
	STORE4(R10)
	VMULPD Y4, Y4, Y4
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	ACC4
	ADDQ $128, R10
	SUBQ $16, R11
	JNZ  centre

	REDUCE
	VDIVSD X9, X0, X0
	VADDSD eps+56(FP), X0, X0
	VSQRTSD X0, X0, X0
	MOVQ $0x3FF0000000000000, AX
	VMOVQ AX, X2
	VDIVSD X0, X2, X0
	VMOVSD X0, ret+64(FP)
	VBROADCASTSD X0, Y8

scale:
	LOAD4(SI)
	VMULPD Y8, Y4, Y4
	VMULPD Y8, Y5, Y5
	VMULPD Y8, Y6, Y6
	VMULPD Y8, Y7, Y7
	STORE4(SI)
	VMULPD (R8), Y4, Y4
	VMULPD 32(R8), Y5, Y5
	VMULPD 64(R8), Y6, Y6
	VMULPD 96(R8), Y7, Y7
	VADDPD (R9), Y4, Y4
	VADDPD 32(R9), Y5, Y5
	VADDPD 64(R9), Y6, Y6
	VADDPD 96(R9), Y7, Y7
	STORE4(DI)
	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, DI
	SUBQ $16, CX
	JNZ  scale
	VZEROUPPER
	RET
