//go:build amd64 && !purego

// amd64 kernels of the attention core (see attend.go).
//
// One call is a row vector times a strided row-major matrix, several
// output columns at a time: per row i, broadcast a[i], multiply it by
// the row's columns (VMULPD), add each product into its column's
// accumulator (VADDPD). Strict multiply then add in ascending i per
// column, then one multiply by scale — the rounding sequence of the
// scalar loop, so results are bit-identical to it. The accumulators
// are independent add chains, which is what hides the add latency a
// single dot product serializes on.
//
// vecMatZ (AVX-512F) sums 64 columns per pass in eight ZMM
// accumulators, then the remaining 48, 32 or 16 in one pass of six,
// four or two; at 64 a row is eight multiply and eight add µops on the
// two 512-bit ports. vecMat16AVX sums 16 columns per pass in four YMM
// accumulators: the whole core on an AVX host, and on an AVX-512 host
// the last partial block of a padded product, whose accumulators it
// spills to store only the real columns.
//
// With acc set both start each column's accumulator from dst instead
// of 0 (vecMatZ by a zero-masking load whose mask K1 is all ones only
// then), so a sum the value pass stored after one KV page carries on
// over the next page's rows.

#include "textflag.h"

// func vecMat16AVX(dst, a *float64, n int, b *float64, stride, cols int, scale float64, acc bool)
TEXT ·vecMat16AVX(SB), NOSPLIT, $128-57
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), DX
	MOVQ stride+32(FP), BX
	SHLQ $3, BX
	MOVQ cols+40(FP), AX
	VBROADCASTSD scale+48(FP), Y12
	MOVBLZX acc+56(FP), R11

block:
	TESTQ R11, R11
	JNZ  load
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	JMP  start

load:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3

start:
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

// ZINIT starts acc at dst's 8 columns at byte offset off where K1 is
// set, at 0 where it is clear.
#define ZINIT(acc, off) \
	VMOVUPD.Z off(DI), K1, acc

// ZTERM multiplies the broadcast a[i] in Z8 by 8 columns of row i at
// byte offset off and adds the products into acc, through t.
#define ZTERM(off, t, acc) \
	VMULPD off(R9), Z8, t; \
	VADDPD t, acc, acc

// ZROWS starts a pass at the first row: a in R8, the pass's columns of
// b in R9, the row count in R10.
#define ZROWS \
	MOVQ SI, R8; \
	MOVQ DX, R9; \
	MOVQ CX, R10

// ZNEXT steps to the next row and loops.
#define ZNEXT(loop) \
	ADDQ $8, R8; \
	ADDQ BX, R9; \
	DECQ R10; \
	JNZ  loop

// ZSTORE scales acc and stores its 8 columns at byte offset off of dst.
#define ZSTORE(acc, off) \
	VMULPD Z31, acc, acc; \
	VMOVUPD acc, off(DI)

// func vecMatZ(dst, a *float64, n int, b *float64, stride, cols int, scale float64, acc bool)
TEXT ·vecMatZ(SB), NOSPLIT, $0-57
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), DX
	MOVQ stride+32(FP), BX
	SHLQ $3, BX
	MOVQ cols+40(FP), AX
	VBROADCASTSD scale+48(FP), Z31
	MOVBLZX acc+56(FP), R11
	NEGQ R11
	KMOVW R11, K1
	CMPQ AX, $64
	JLT  rest

pass64:
	ZINIT(Z0, 0)
	ZINIT(Z1, 64)
	ZINIT(Z2, 128)
	ZINIT(Z3, 192)
	ZINIT(Z4, 256)
	ZINIT(Z5, 320)
	ZINIT(Z6, 384)
	ZINIT(Z7, 448)
	ZROWS

row64:
	VBROADCASTSD (R8), Z8
	ZTERM(0, Z9, Z0)
	ZTERM(64, Z10, Z1)
	ZTERM(128, Z11, Z2)
	ZTERM(192, Z12, Z3)
	ZTERM(256, Z13, Z4)
	ZTERM(320, Z14, Z5)
	ZTERM(384, Z15, Z6)
	ZTERM(448, Z16, Z7)
	ZNEXT(row64)

	ZSTORE(Z0, 0)
	ZSTORE(Z1, 64)
	ZSTORE(Z2, 128)
	ZSTORE(Z3, 192)
	ZSTORE(Z4, 256)
	ZSTORE(Z5, 320)
	ZSTORE(Z6, 384)
	ZSTORE(Z7, 448)
	ADDQ $512, DI
	ADDQ $512, DX
	SUBQ $64, AX
	CMPQ AX, $64
	JGE  pass64

rest:
	// AX is 0, 16, 32 or 48
	CMPQ AX, $32
	JGT  pass48
	JEQ  pass32
	TESTQ AX, AX
	JNZ  pass16
	VZEROUPPER
	RET

pass48:
	ZINIT(Z0, 0)
	ZINIT(Z1, 64)
	ZINIT(Z2, 128)
	ZINIT(Z3, 192)
	ZINIT(Z4, 256)
	ZINIT(Z5, 320)
	ZROWS

row48:
	VBROADCASTSD (R8), Z8
	ZTERM(0, Z9, Z0)
	ZTERM(64, Z10, Z1)
	ZTERM(128, Z11, Z2)
	ZTERM(192, Z12, Z3)
	ZTERM(256, Z13, Z4)
	ZTERM(320, Z14, Z5)
	ZNEXT(row48)

	ZSTORE(Z0, 0)
	ZSTORE(Z1, 64)
	ZSTORE(Z2, 128)
	ZSTORE(Z3, 192)
	ZSTORE(Z4, 256)
	ZSTORE(Z5, 320)
	VZEROUPPER
	RET

pass32:
	ZINIT(Z0, 0)
	ZINIT(Z1, 64)
	ZINIT(Z2, 128)
	ZINIT(Z3, 192)
	ZROWS

row32:
	VBROADCASTSD (R8), Z8
	ZTERM(0, Z9, Z0)
	ZTERM(64, Z10, Z1)
	ZTERM(128, Z11, Z2)
	ZTERM(192, Z12, Z3)
	ZNEXT(row32)

	ZSTORE(Z0, 0)
	ZSTORE(Z1, 64)
	ZSTORE(Z2, 128)
	ZSTORE(Z3, 192)
	VZEROUPPER
	RET

pass16:
	ZINIT(Z0, 0)
	ZINIT(Z1, 64)
	ZROWS

row16:
	VBROADCASTSD (R8), Z8
	ZTERM(0, Z9, Z0)
	ZTERM(64, Z10, Z1)
	ZNEXT(row16)

	ZSTORE(Z0, 0)
	ZSTORE(Z1, 64)
	VZEROUPPER
	RET
