//go:build amd64 && !purego

// amd64 kernels of the vector math in exp.go: exp under softmax and
// GELU, and the residual + layer-norm row. The YMM kernels (expSub8AVX,
// gelu8AVX, normRow16AVX) need AVX2; the ZMM kernels (geluZ, softmaxZ)
// need AVX-512F; tailGate picks the twin.
//
// Each kernel is the portable loop of exp.go operation for operation —
// strict VMULPD / VADDPD / VSUBPD / VDIVPD, never a fused multiply-add,
// the constants read from the table the portable code reads — so every
// lane holds the bits the scalar code computes for that element. Lanes
// mix only in the row norm's one fixed reduction order (REDUCE below,
// sum16 in exp.go) and in softmaxZ's maximum (exact in any order) and
// sum (the portable loop's serial chain, one lane at a time).

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

// The ZMM kernels below are the same operations on eight lanes per
// register, each constant a broadcast operand read from the table (R8),
// the three special cases blended in by opmask. A row runs as blocks of
// 32 elements — four 8-lane chains, x in Z0-Z3, t in Z4-Z7, p (first k)
// in Z8-Z11, r in Z12-Z15, interleaved one step at a time — then
// single-chain 8-element blocks, then one masked block of the last n mod
// 8 elements, whose loads and stores touch nothing past the row.

// ZREDUCE starts one chain: t = x*log2e + magic, k = t - magic,
// r = x - k*ln2Hi - k*ln2Lo, and k's register takes the leading
// coefficient of p.
#define ZREDUCE(x, t, k, r) \
	VMULPD.BCST 0(R8), x, t; \
	VADDPD.BCST 8(R8), t, t; \
	VSUBPD.BCST 8(R8), t, k; \
	VMULPD.BCST 16(R8), k, r; \
	VSUBPD r, x, r; \
	VMULPD.BCST 24(R8), k, k; \
	VSUBPD k, r, r; \
	VBROADCASTSD 32(R8), k

// ZHORNER is one step p = p*r + c of one chain, c at byte offset off.
#define ZHORNER(off, p, r) \
	VMULPD r, p, p; \
	VADDPD.BCST off(R8), p, p

#define ZH4(off) \
	ZHORNER(off, Z8, Z12); \
	ZHORNER(off, Z9, Z13); \
	ZHORNER(off, Z10, Z14); \
	ZHORNER(off, Z11, Z15)

#define ZH1(off) ZHORNER(off, Z8, Z12)

// ZFINISH adds t's low bits into p's exponent, then blends the special
// cases of x in: +0 below -708, +Inf above 709, x itself for NaN.
// Clobbers K2.
#define ZFINISH(x, t, p) \
	VPSLLQ $52, t, t; \
	VPADDQ t, p, p; \
	VCMPPD.BCST $0x11, 136(R8), x, K2; \
	VPXORQ p, p, K2, p; \
	VCMPPD.BCST $0x1E, 144(R8), x, K2; \
	VBROADCASTSD 152(R8), K2, p; \
	VCMPPD $3, x, x, K2; \
	VMOVAPD x, K2, p

// ZEXP4 puts Exp of the 32 x of Z0-Z3 in Z8-Z11.
#define ZEXP4 \
	ZREDUCE(Z0, Z4, Z8, Z12); \
	ZREDUCE(Z1, Z5, Z9, Z13); \
	ZREDUCE(Z2, Z6, Z10, Z14); \
	ZREDUCE(Z3, Z7, Z11, Z15); \
	ZH4(40); ZH4(48); ZH4(56); ZH4(64); ZH4(72); ZH4(80); ZH4(88); \
	ZH4(96); ZH4(104); ZH4(112); ZH4(120); ZH4(128); ZH4(128); \
	ZFINISH(Z0, Z4, Z8); \
	ZFINISH(Z1, Z5, Z9); \
	ZFINISH(Z2, Z6, Z10); \
	ZFINISH(Z3, Z7, Z11)

// ZEXP1 puts Exp of the 8 x of Z0 in Z8.
#define ZEXP1 \
	ZREDUCE(Z0, Z4, Z8, Z12); \
	ZH1(40); ZH1(48); ZH1(56); ZH1(64); ZH1(72); ZH1(80); ZH1(88); \
	ZH1(96); ZH1(104); ZH1(112); ZH1(120); ZH1(128); ZH1(128); \
	ZFINISH(Z0, Z4, Z8)

// ZMASK sets K1 to the low CX lanes (CX < 8). Clobbers AX.
#define ZMASK \
	MOVQ $1, AX; \
	SHLQ CX, AX; \
	DECQ AX; \
	KMOVW AX, K1

// ZSUM8 adds the 8 lanes of z (x its low quarter) into the sum in X20,
// one at a time in ascending lane order: the portable loop's serial
// chain. Clobbers X4 and X5, which hold t once the chains are done.
#define ZSUM8(z, x) \
	VADDSD x, X20, X20; \
	VUNPCKHPD x, x, X4; \
	VADDSD X4, X20, X20; \
	VEXTRACTF32X4 $1, z, X5; \
	VADDSD X5, X20, X20; \
	VUNPCKHPD X5, X5, X4; \
	VADDSD X4, X20, X20; \
	VEXTRACTF32X4 $2, z, X5; \
	VADDSD X5, X20, X20; \
	VUNPCKHPD X5, X5, X4; \
	VADDSD X4, X20, X20; \
	VEXTRACTF32X4 $3, z, X5; \
	VADDSD X5, X20, X20; \
	VUNPCKHPD X5, X5, X4; \
	VADDSD X4, X20, X20

// ZADD2 adds the two results at byte offsets off and off+8 of p into
// the sum in X20, in that order.
#define ZADD2(p, off) \
	VADDSD off(p), X20, X20; \
	VADDSD off+8(p), X20, X20

// ZEXP4S is ZEXP4 with the 32 serial adds of the previous block's sum
// (its results at p) spread between its steps, in ascending order, so
// the add chain of one block runs beside the exp of the next instead of
// filling the scheduler behind it.
#define ZEXP4S(p) \
	ZREDUCE(Z0, Z4, Z8, Z12); ZADD2(p, 0); \
	ZREDUCE(Z1, Z5, Z9, Z13); ZADD2(p, 16); \
	ZREDUCE(Z2, Z6, Z10, Z14); \
	ZREDUCE(Z3, Z7, Z11, Z15); \
	ZH4(40); ZADD2(p, 32); ZH4(48); ZADD2(p, 48); \
	ZH4(56); ZADD2(p, 64); ZH4(64); ZADD2(p, 80); \
	ZH4(72); ZADD2(p, 96); ZH4(80); ZADD2(p, 112); \
	ZH4(88); ZADD2(p, 128); ZH4(96); ZADD2(p, 144); \
	ZH4(104); ZADD2(p, 160); ZH4(112); ZADD2(p, 176); \
	ZH4(120); ZADD2(p, 192); ZH4(128); ZADD2(p, 208); \
	ZH4(128); ZADD2(p, 224); \
	ZFINISH(Z0, Z4, Z8); \
	ZFINISH(Z1, Z5, Z9); \
	ZFINISH(Z2, Z6, Z10); \
	ZFINISH(Z3, Z7, Z11); \
	ZADD2(p, 240)

// ZLOAD4 loads the next 32 elements at SI into Z0-Z3 as x = v - shift.
#define ZLOAD4 \
	VMOVUPD (SI), Z0; \
	VMOVUPD 64(SI), Z1; \
	VMOVUPD 128(SI), Z2; \
	VMOVUPD 192(SI), Z3; \
	VSUBPD Z31, Z0, Z0; \
	VSUBPD Z31, Z1, Z1; \
	VSUBPD Z31, Z2, Z2; \
	VSUBPD Z31, Z3, Z3

// ZSTORE4 stores the 32 results of Z8-Z11 at DI, keeps their address in
// R12 for the next block's sum, and steps to the next block.
#define ZSTORE4 \
	VMOVUPD Z8, (DI); \
	VMOVUPD Z9, 64(DI); \
	VMOVUPD Z10, 128(DI); \
	VMOVUPD Z11, 192(DI); \
	MOVQ DI, R12; \
	ADDQ $256, SI; \
	ADDQ $256, DI; \
	SUBQ $32, CX


// func softmaxZ(dst, src *float64, n int, tab *float64)
//
// Softmax in three passes over the row, every value between them in a
// register, K1 the lanes of the last partial block in all three:
//
// The maximum, as the portable loop takes it: each lane of Z0-Z3 starts
// at src[0] and takes v only where v > it (VMAXPD with v the first
// source), so a NaN after src[0] is never taken and a NaN src[0] is the
// result. The accumulators then fold, and a butterfly leaves the
// maximum in every lane of Z31. Only the sign of a zero maximum can
// differ from the loop's, which no x - max can see.
//
// The exp pass with shift = the maximum, and its ascending sum.
//
// dst[i] *= 1/sum, dst[i] the first source as in the portable loop
// (which decides the payload when both are NaN).
TEXT ·softmaxZ(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), R8
	ANDQ $7, CX
	ZMASK
	MOVQ n+16(FP), CX
	MOVQ CX, R11
	VBROADCASTSD (SI), Z0
	CMPQ CX, $32
	JLT  max8
	VMOVAPD Z0, Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z0, Z3

max32:
	VMOVUPD (SI), Z4
	VMOVUPD 64(SI), Z5
	VMOVUPD 128(SI), Z6
	VMOVUPD 192(SI), Z7
	VMAXPD Z0, Z4, Z0
	VMAXPD Z1, Z5, Z1
	VMAXPD Z2, Z6, Z2
	VMAXPD Z3, Z7, Z3
	ADDQ $256, SI
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  max32
	VMAXPD Z1, Z0, Z0
	VMAXPD Z3, Z2, Z2
	VMAXPD Z2, Z0, Z0

max8:
	CMPQ CX, $8
	JLT  maxpart
	VMOVUPD (SI), Z4
	VMAXPD Z0, Z4, Z0
	ADDQ $64, SI
	SUBQ $8, CX
	JMP  max8

maxpart:
	TESTQ CX, CX
	JZ   maxfold
	VMOVUPD.Z (SI), K1, Z4
	VMAXPD Z0, Z4, K1, Z0

maxfold:
	VSHUFF64X2 $0x4E, Z0, Z0, Z1
	VMAXPD Z1, Z0, Z0
	VSHUFF64X2 $0xB1, Z0, Z0, Z1
	VMAXPD Z1, Z0, Z0
	VPERMILPD $0x55, Z0, Z1
	VMAXPD Z1, Z0, Z31

	MOVQ src+8(FP), SI
	MOVQ R11, CX
	// The exp pass: dst[i] = Exp(src[i] - max), and their sum, added in
	// ascending i from +0, into X20. Whole 32-element blocks are
	// software-pipelined: each block's sum is added during the next
	// block's exp (ZEXP4S), the last one's after the loop.
	VPXORQ Z20, Z20, Z20
	CMPQ CX, $32
	JLT  exp8
	ZLOAD4
	ZEXP4
	ZSTORE4

exp32:
	CMPQ CX, $32
	JLT  exp32sum
	ZLOAD4
	ZEXP4S(R12)
	ZSTORE4
	JMP  exp32

exp32sum:
	ZADD2(R12, 0)
	ZADD2(R12, 16)
	ZADD2(R12, 32)
	ZADD2(R12, 48)
	ZADD2(R12, 64)
	ZADD2(R12, 80)
	ZADD2(R12, 96)
	ZADD2(R12, 112)
	ZADD2(R12, 128)
	ZADD2(R12, 144)
	ZADD2(R12, 160)
	ZADD2(R12, 176)
	ZADD2(R12, 192)
	ZADD2(R12, 208)
	ZADD2(R12, 224)
	ZADD2(R12, 240)

exp8:
	CMPQ CX, $8
	JLT  exppart
	VMOVUPD (SI), Z0
	VSUBPD Z31, Z0, Z0
	ZEXP1
	VMOVUPD Z8, (DI)
	ZSUM8(Z8, X8)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  exp8

exppart:
	TESTQ CX, CX
	JZ   expdone
	VMOVUPD.Z (SI), K1, Z0
	VSUBPD Z31, Z0, Z0
	ZEXP1
	VMOVUPD Z8, K1, (DI)

expsum:
	VADDSD (DI), X20, X20
	ADDQ $8, DI
	DECQ CX
	JNZ  expsum

expdone:
	MOVQ $0x3FF0000000000000, AX
	VMOVQ AX, X1
	VDIVSD X20, X1, X1
	VBROADCASTSD X1, Z31
	MOVQ dst+0(FP), DI
	MOVQ R11, CX
	CMPQ CX, $32
	JLT  scale8

scale32:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMULPD Z31, Z0, Z0
	VMULPD Z31, Z1, Z1
	VMULPD Z31, Z2, Z2
	VMULPD Z31, Z3, Z3
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ $256, DI
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  scale32

scale8:
	CMPQ CX, $8
	JLT  scalepart
	VMOVUPD (DI), Z0
	VMULPD Z31, Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  scale8

scalepart:
	TESTQ CX, CX
	JZ   scaledone
	VMOVUPD.Z (DI), K1, Z0
	VMULPD Z31, Z0, Z0
	VMOVUPD Z0, K1, (DI)

scaledone:
	VZEROUPPER
	RET

// ZGELUARG turns v into GELU's exponent z = -2*GELUScale * (v +
// ((GELUCubic*v)*v)*v).
#define ZGELUARG(v, z) \
	VMULPD.BCST 160(R8), v, z; \
	VMULPD v, z, z; \
	VMULPD v, z, z; \
	VADDPD v, z, z; \
	VMULPD.BCST 168(R8), z, z

// ZGELUOUT turns e = Exp(z) into v / (1 + e).
#define ZGELUOUT(v, e) \
	VADDPD.BCST 128(R8), e, e; \
	VDIVPD e, v, e

// func geluZ(dst, src *float64, n int, tab *float64)
//
// dst[i] = src[i] / (1 + GELUExp(src[i])) for i < n, n >= 1; v stays in
// Z16-Z19 across the exp.
TEXT ·geluZ(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), R8
	CMPQ CX, $32
	JLT  gelu8

gelu32:
	VMOVUPD (SI), Z16
	VMOVUPD 64(SI), Z17
	VMOVUPD 128(SI), Z18
	VMOVUPD 192(SI), Z19
	ZGELUARG(Z16, Z0)
	ZGELUARG(Z17, Z1)
	ZGELUARG(Z18, Z2)
	ZGELUARG(Z19, Z3)
	ZEXP4
	ZGELUOUT(Z16, Z8)
	ZGELUOUT(Z17, Z9)
	ZGELUOUT(Z18, Z10)
	ZGELUOUT(Z19, Z11)
	VMOVUPD Z8, (DI)
	VMOVUPD Z9, 64(DI)
	VMOVUPD Z10, 128(DI)
	VMOVUPD Z11, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  gelu32

gelu8:
	CMPQ CX, $8
	JLT  gelupart
	VMOVUPD (SI), Z16
	ZGELUARG(Z16, Z0)
	ZEXP1
	ZGELUOUT(Z16, Z8)
	VMOVUPD Z8, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  gelu8

gelupart:
	TESTQ CX, CX
	JZ   geludone
	ZMASK
	VMOVUPD.Z (SI), K1, Z16
	ZGELUARG(Z16, Z0)
	ZEXP1
	ZGELUOUT(Z16, Z8)
	VMOVUPD Z8, K1, (DI)

geludone:
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
