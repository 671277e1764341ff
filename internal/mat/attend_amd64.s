//go:build amd64 && !purego

// amd64 kernels of the attention core (see attend.go).
//
// Two calls make a head-row: the score pass and the value pass. Each
// walks the window's KV pages itself — k and v point at the page table,
// a slice of slice headers 24 bytes apart — so a page edge costs a
// pointer load, not a call. Per summed row, broadcast one element of
// the row vector, multiply it by the row's columns (VMULPD), add each
// product into its column's accumulator (VADDPD). Strict multiply then
// add in ascending row order per column — the rounding sequence of the
// scalar loop, so results are bit-identical to it. The accumulators
// are independent add chains, which is what hides the add latency a
// single dot product serializes on.
//
// The score pass treats the window as a list of 16-key blocks, block b
// at key row 16*b: page b/bpp, at byte offset ko*8 + (b%bpp)*128 in the
// page, bpp = ld/16 rounded up (one page: every block is in it). It
// sums up to four blocks per feature loop — eight ZMM accumulators, or
// two blocks in eight YMM ones — whichever pages they sit in, then
// scales and stores them, the last group's stores masked at the
// window's end. Key lanes past the window are loaded and never stored.
//
// The value pass sums the context columns in passes of up to 64 (ZMM)
// or 32 (YMM) columns, eight accumulators; a pass runs over every row
// of every page before it stores, so the sums stay in registers from
// the first page to the last. The pass's last two vectors load and
// store under a mask, so head dims that are no multiple of a vector
// read nothing past the head's columns.

#include "textflag.h"

// attendMask is 32 all-ones quadwords then 32 zero ones: the 8 YMM
// masks at attendMask+8*(32-r), 32 bytes apart, select lanes [0, r).
DATA attendMask<>+0x00(SB)/8, $-1
DATA attendMask<>+0x08(SB)/8, $-1
DATA attendMask<>+0x10(SB)/8, $-1
DATA attendMask<>+0x18(SB)/8, $-1
DATA attendMask<>+0x20(SB)/8, $-1
DATA attendMask<>+0x28(SB)/8, $-1
DATA attendMask<>+0x30(SB)/8, $-1
DATA attendMask<>+0x38(SB)/8, $-1
DATA attendMask<>+0x40(SB)/8, $-1
DATA attendMask<>+0x48(SB)/8, $-1
DATA attendMask<>+0x50(SB)/8, $-1
DATA attendMask<>+0x58(SB)/8, $-1
DATA attendMask<>+0x60(SB)/8, $-1
DATA attendMask<>+0x68(SB)/8, $-1
DATA attendMask<>+0x70(SB)/8, $-1
DATA attendMask<>+0x78(SB)/8, $-1
DATA attendMask<>+0x80(SB)/8, $-1
DATA attendMask<>+0x88(SB)/8, $-1
DATA attendMask<>+0x90(SB)/8, $-1
DATA attendMask<>+0x98(SB)/8, $-1
DATA attendMask<>+0xa0(SB)/8, $-1
DATA attendMask<>+0xa8(SB)/8, $-1
DATA attendMask<>+0xb0(SB)/8, $-1
DATA attendMask<>+0xb8(SB)/8, $-1
DATA attendMask<>+0xc0(SB)/8, $-1
DATA attendMask<>+0xc8(SB)/8, $-1
DATA attendMask<>+0xd0(SB)/8, $-1
DATA attendMask<>+0xd8(SB)/8, $-1
DATA attendMask<>+0xe0(SB)/8, $-1
DATA attendMask<>+0xe8(SB)/8, $-1
DATA attendMask<>+0xf0(SB)/8, $-1
DATA attendMask<>+0xf8(SB)/8, $-1
GLOBL attendMask<>(SB), RODATA|NOPTR, $512

// The score walk, shared by both twins: the page header in DX, the next
// block's byte offset in its page in R13, the page's end offset at
// 0(SP) and ko*8 at 8(SP).

// SETUP loads the score pass's arguments: p in DI, ld*8 in BX, the
// window's rows in AX, and the walk's start.
#define SETUP \
	MOVQ p+0(FP), DI; \
	MOVQ k+24(FP), DX; \
	MOVQ ko+32(FP), R13; \
	SHLQ $3, R13; \
	MOVQ R13, 8(SP); \
	MOVQ ld+40(FP), BX; \
	LEAQ 15(BX), CX; \
	SHRQ $4, CX; \
	SHLQ $7, CX; \
	ADDQ R13, CX; \
	MOVQ CX, 0(SP); \
	SHLQ $3, BX; \
	MOVQ rows+48(FP), AX

// BLOCK takes the next key block's address into r and steps the walk,
// to the next page's first block at the end of a page.
#define BLOCK(r) \
	MOVQ (DX), r; \
	ADDQ R13, r; \
	ADDQ $128, R13; \
	LEAQ 24(DX), CX; \
	CMPQ R13, 0(SP); \
	CMOVQEQ CX, DX; \
	CMOVQEQ 8(SP), R13

// FEATURES starts a feature loop: q in SI, hd in CX, the feature's byte
// offset in every block in R12.
#define FEATURES \
	MOVQ q+8(FP), SI; \
	MOVQ hd+16(FP), CX; \
	XORQ R12, R12

// FNEXT steps to the next feature and loops.
#define FNEXT(loop) \
	ADDQ $8, SI; \
	ADDQ BX, R12; \
	DECQ CX; \
	JNZ  loop

// ZKEY multiplies the broadcast q[c] in Z8 by 8 keys of the block at
// r, byte offset off, and adds the products into acc, through t.
#define ZKEY(r, off, t, acc) \
	VMULPD off(r)(R12*1), Z8, t; \
	VADDPD t, acc, acc

// ZMASK sets R8 to the store mask of a group: bit j set for the
// group's score j < AX.
#define ZMASK \
	MOVQ AX, CX; \
	MOVL $1, R8; \
	SHLQ CX, R8; \
	DECQ R8; \
	MOVQ $-1, R9; \
	CMPQ AX, $64; \
	CMOVQGE R9, R8

// ZSCORE scales acc and stores its 8 scores at byte offset off of p,
// under the next 8 bits of R8.
#define ZSCORE(acc, off) \
	KMOVW R8, K2; \
	SHRQ $8, R8; \
	VMULPD Z31, acc, acc; \
	VMOVUPD acc, K2, off(DI)

// The value walk, shared by both twins: out in DI, the columns left in
// AX, the pass's byte offset in every value row (vo*8 plus its first
// column) in R12, vs*8 in BX; per pass the page header in DX, p in SI,
// the window's rows left in R11 and the page's in R10, the row in R9.

// VSETUP loads the value pass's arguments.
#define VSETUP \
	MOVQ out+0(FP), DI; \
	MOVQ hd+16(FP), AX; \
	MOVQ vo+32(FP), R12; \
	SHLQ $3, R12; \
	MOVQ vs+48(FP), BX; \
	SHLQ $3, BX

// VROWS starts a pass at the window's first row.
#define VROWS \
	MOVQ v+24(FP), DX; \
	MOVQ p+8(FP), SI; \
	MOVQ rows+56(FP), R11

// VPAGE starts a page: its rows of this pass from R9, min(ld, rows
// left) of them in R10.
#define VPAGE \
	MOVQ (DX), R9; \
	ADDQ R12, R9; \
	MOVQ ld+40(FP), R10; \
	CMPQ R10, R11; \
	CMOVQGT R11, R10; \
	SUBQ R10, R11

// VNEXT steps to the page's next row and loops, then to the next page
// while the window has rows left.
#define VNEXT(row, page) \
	ADDQ $8, SI; \
	ADDQ BX, R9; \
	DECQ R10; \
	JNZ  row; \
	ADDQ $24, DX; \
	TESTQ R11, R11; \
	JNZ  page

// func attendScoresZ(p, q *float64, hd int, k *[]float64, ko, ld, rows int, scale float64)
TEXT ·attendScoresZ(SB), NOSPLIT, $16-64
	SETUP
	VBROADCASTSD scale+56(FP), Z31

group64:
	CMPQ AX, $48
	JLE  rest
	BLOCK(R8)
	BLOCK(R9)
	BLOCK(R10)
	BLOCK(R11)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	FEATURES
	PCALIGN $32

f64:
	VBROADCASTSD (SI), Z8
	ZKEY(R8, 0, Z9, Z0)
	ZKEY(R8, 64, Z10, Z1)
	ZKEY(R9, 0, Z11, Z2)
	ZKEY(R9, 64, Z12, Z3)
	ZKEY(R10, 0, Z13, Z4)
	ZKEY(R10, 64, Z14, Z5)
	ZKEY(R11, 0, Z15, Z6)
	ZKEY(R11, 64, Z16, Z7)
	FNEXT(f64)

	ZMASK
	ZSCORE(Z0, 0)
	ZSCORE(Z1, 64)
	ZSCORE(Z2, 128)
	ZSCORE(Z3, 192)
	ZSCORE(Z4, 256)
	ZSCORE(Z5, 320)
	ZSCORE(Z6, 384)
	ZSCORE(Z7, 448)
	ADDQ $512, DI
	SUBQ $64, AX
	JG   group64
	VZEROUPPER
	RET

rest:
	// AX in [1, 48]: one last group of three, two or one blocks
	CMPQ AX, $32
	JGT  group48
	CMPQ AX, $16
	JGT  group32
	BLOCK(R8)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	FEATURES

f16:
	VBROADCASTSD (SI), Z8
	ZKEY(R8, 0, Z9, Z0)
	ZKEY(R8, 64, Z10, Z1)
	FNEXT(f16)

	ZMASK
	ZSCORE(Z0, 0)
	ZSCORE(Z1, 64)
	VZEROUPPER
	RET

group32:
	BLOCK(R8)
	BLOCK(R9)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	FEATURES

f32:
	VBROADCASTSD (SI), Z8
	ZKEY(R8, 0, Z9, Z0)
	ZKEY(R8, 64, Z10, Z1)
	ZKEY(R9, 0, Z11, Z2)
	ZKEY(R9, 64, Z12, Z3)
	FNEXT(f32)

	ZMASK
	ZSCORE(Z0, 0)
	ZSCORE(Z1, 64)
	ZSCORE(Z2, 128)
	ZSCORE(Z3, 192)
	VZEROUPPER
	RET

group48:
	BLOCK(R8)
	BLOCK(R9)
	BLOCK(R10)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	FEATURES

f48:
	VBROADCASTSD (SI), Z8
	ZKEY(R8, 0, Z9, Z0)
	ZKEY(R8, 64, Z10, Z1)
	ZKEY(R9, 0, Z11, Z2)
	ZKEY(R9, 64, Z12, Z3)
	ZKEY(R10, 0, Z13, Z4)
	ZKEY(R10, 64, Z14, Z5)
	FNEXT(f48)

	ZMASK
	ZSCORE(Z0, 0)
	ZSCORE(Z1, 64)
	ZSCORE(Z2, 128)
	ZSCORE(Z3, 192)
	ZSCORE(Z4, 256)
	ZSCORE(Z5, 320)
	VZEROUPPER
	RET

// YKEY is ZKEY at YMM width, the broadcast in Y8.
#define YKEY(r, off, t, acc) \
	VMULPD off(r)(R12*1), Y8, t; \
	VADDPD t, acc, acc

// YMASKS points R8 at the 8 store masks of a group: lanes below AX,
// AX clamped to the group's 32.
#define YMASKS \
	MOVQ $32, CX; \
	CMPQ AX, CX; \
	CMOVQLT AX, CX; \
	NEGQ CX; \
	LEAQ attendMask<>+256(SB), R8; \
	LEAQ (R8)(CX*8), R8

// YSCORE scales acc and stores its 4 scores at byte offset off of p
// under the mask at off(R8).
#define YSCORE(acc, off) \
	VMOVUPD off(R8), Y9; \
	VMULPD Y15, acc, acc; \
	VMASKMOVPD acc, Y9, off(DI)

// func attendScoresAVX(p, q *float64, hd int, k *[]float64, ko, ld, rows int, scale float64)
TEXT ·attendScoresAVX(SB), NOSPLIT, $16-64
	SETUP
	VBROADCASTSD scale+56(FP), Y15

group32y:
	CMPQ AX, $16
	JLE  group16y
	BLOCK(R10)
	BLOCK(R11)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	FEATURES

f32y:
	VBROADCASTSD (SI), Y8
	YKEY(R10, 0, Y9, Y0)
	YKEY(R10, 32, Y10, Y1)
	YKEY(R10, 64, Y11, Y2)
	YKEY(R10, 96, Y12, Y3)
	YKEY(R11, 0, Y13, Y4)
	YKEY(R11, 32, Y14, Y5)
	YKEY(R11, 64, Y9, Y6)
	YKEY(R11, 96, Y10, Y7)
	FNEXT(f32y)

	YMASKS
	YSCORE(Y0, 0)
	YSCORE(Y1, 32)
	YSCORE(Y2, 64)
	YSCORE(Y3, 96)
	YSCORE(Y4, 128)
	YSCORE(Y5, 160)
	YSCORE(Y6, 192)
	YSCORE(Y7, 224)
	ADDQ $256, DI
	SUBQ $32, AX
	JG   group32y
	VZEROUPPER
	RET

group16y:
	// AX in [1, 16]: one last block
	BLOCK(R10)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	FEATURES

f16y:
	VBROADCASTSD (SI), Y8
	YKEY(R10, 0, Y9, Y0)
	YKEY(R10, 32, Y10, Y1)
	YKEY(R10, 64, Y11, Y2)
	YKEY(R10, 96, Y12, Y3)
	FNEXT(f16y)

	YMASKS
	YSCORE(Y0, 0)
	YSCORE(Y1, 32)
	YSCORE(Y2, 64)
	YSCORE(Y3, 96)
	VZEROUPPER
	RET

// ZVMASK sets K2 and K3 to the pass's last two vectors' lanes: of its
// last 16 columns, the first ((min(AX, 64)-1) mod 16) + 1.
#define ZVMASK \
	MOVQ $64, CX; \
	CMPQ AX, CX; \
	CMOVQLT AX, CX; \
	DECQ CX; \
	ANDQ $15, CX; \
	INCQ CX; \
	MOVL $1, R8; \
	SHLQ CX, R8; \
	DECQ R8; \
	KMOVW R8, K2; \
	SHRQ $8, R8; \
	KMOVW R8, K3

// ZVAL multiplies the broadcast p[j] in Z8 by 8 columns of the row at
// byte offset off and adds the products into acc, through t; ZVALM
// does it under mask k, loading nothing outside it.
#define ZVAL(off, t, acc) \
	VMULPD off(R9), Z8, t; \
	VADDPD t, acc, acc

#define ZVALM(off, t, acc, k) \
	VMULPD.Z off(R9), Z8, k, t; \
	VADDPD t, acc, acc

// func attendValuesZ(out, p *float64, hd int, v *[]float64, vo, ld, vs, rows int)
TEXT ·attendValuesZ(SB), NOSPLIT, $0-64
	VSETUP

pass:
	ZVMASK
	CMPQ AX, $32
	JLE  pass32
	CMPQ AX, $48
	JLE  pass48
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VROWS

page64:
	VPAGE

row64:
	VBROADCASTSD (SI), Z8
	ZVAL(0, Z9, Z0)
	ZVAL(64, Z10, Z1)
	ZVAL(128, Z11, Z2)
	ZVAL(192, Z12, Z3)
	ZVAL(256, Z13, Z4)
	ZVAL(320, Z14, Z5)
	ZVALM(384, Z15, Z6, K2)
	ZVALM(448, Z16, Z7, K3)
	VNEXT(row64, page64)

	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, K2, 384(DI)
	VMOVUPD Z7, K3, 448(DI)
	ADDQ $512, DI
	ADDQ $512, R12
	SUBQ $64, AX
	JG   pass
	VZEROUPPER
	RET

pass48:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VROWS

page48:
	VPAGE

row48:
	VBROADCASTSD (SI), Z8
	ZVAL(0, Z9, Z0)
	ZVAL(64, Z10, Z1)
	ZVAL(128, Z11, Z2)
	ZVAL(192, Z12, Z3)
	ZVALM(256, Z13, Z4, K2)
	ZVALM(320, Z14, Z5, K3)
	VNEXT(row48, page48)

	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, K2, 256(DI)
	VMOVUPD Z5, K3, 320(DI)
	VZEROUPPER
	RET

pass32:
	CMPQ AX, $16
	JLE  pass16
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VROWS

page32:
	VPAGE

row32:
	VBROADCASTSD (SI), Z8
	ZVAL(0, Z9, Z0)
	ZVAL(64, Z10, Z1)
	ZVALM(128, Z11, Z2, K2)
	ZVALM(192, Z12, Z3, K3)
	VNEXT(row32, page32)

	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, K2, 128(DI)
	VMOVUPD Z3, K3, 192(DI)
	VZEROUPPER
	RET

pass16:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VROWS

page16:
	VPAGE

row16:
	VBROADCASTSD (SI), Z8
	ZVALM(0, Z9, Z0, K2)
	ZVALM(64, Z10, Z1, K3)
	VNEXT(row16, page16)

	VMOVUPD Z0, K2, 0(DI)
	VMOVUPD Z1, K3, 64(DI)
	VZEROUPPER
	RET

// YVMASK loads Y10 and Y11 with the pass's last two vectors' lanes: of
// its last 8 columns, the first ((min(AX, 32)-1) mod 8) + 1.
#define YVMASK \
	MOVQ $32, CX; \
	CMPQ AX, CX; \
	CMOVQLT AX, CX; \
	DECQ CX; \
	ANDQ $7, CX; \
	NOTQ CX; \
	LEAQ attendMask<>+256(SB), R8; \
	LEAQ (R8)(CX*8), R8; \
	VMOVUPD (R8), Y10; \
	VMOVUPD 32(R8), Y11

// YVAL is ZVAL at YMM width, the broadcast in Y8; YVALM loads under
// the mask in register k.
#define YVAL(off, t, acc) \
	VMULPD off(R9), Y8, t; \
	VADDPD t, acc, acc

#define YVALM(off, t, acc, k) \
	VMASKMOVPD off(R9), k, t; \
	VMULPD t, Y8, t; \
	VADDPD t, acc, acc

// func attendValuesAVX(out, p *float64, hd int, v *[]float64, vo, ld, vs, rows int)
TEXT ·attendValuesAVX(SB), NOSPLIT, $0-64
	VSETUP

passy:
	YVMASK
	CMPQ AX, $16
	JLE  pass16y
	CMPQ AX, $24
	JLE  pass24y
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VROWS

page32y:
	VPAGE

row32y:
	VBROADCASTSD (SI), Y8
	YVAL(0, Y9, Y0)
	YVAL(32, Y12, Y1)
	YVAL(64, Y13, Y2)
	YVAL(96, Y14, Y3)
	YVAL(128, Y15, Y4)
	YVAL(160, Y9, Y5)
	YVALM(192, Y12, Y6, Y10)
	YVALM(224, Y13, Y7, Y11)
	VNEXT(row32y, page32y)

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMASKMOVPD Y6, Y10, 192(DI)
	VMASKMOVPD Y7, Y11, 224(DI)
	ADDQ $256, DI
	ADDQ $256, R12
	SUBQ $32, AX
	JG   passy
	VZEROUPPER
	RET

pass24y:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VROWS

page24y:
	VPAGE

row24y:
	VBROADCASTSD (SI), Y8
	YVAL(0, Y9, Y0)
	YVAL(32, Y12, Y1)
	YVAL(64, Y13, Y2)
	YVAL(96, Y14, Y3)
	YVALM(128, Y15, Y4, Y10)
	YVALM(160, Y9, Y5, Y11)
	VNEXT(row24y, page24y)

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMASKMOVPD Y4, Y10, 128(DI)
	VMASKMOVPD Y5, Y11, 160(DI)
	VZEROUPPER
	RET

pass16y:
	CMPQ AX, $8
	JLE  pass8y
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VROWS

page16y:
	VPAGE

row16y:
	VBROADCASTSD (SI), Y8
	YVAL(0, Y9, Y0)
	YVAL(32, Y12, Y1)
	YVALM(64, Y13, Y2, Y10)
	YVALM(96, Y14, Y3, Y11)
	VNEXT(row16y, page16y)

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMASKMOVPD Y2, Y10, 64(DI)
	VMASKMOVPD Y3, Y11, 96(DI)
	VZEROUPPER
	RET

pass8y:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VROWS

page8y:
	VPAGE

row8y:
	VBROADCASTSD (SI), Y8
	YVALM(0, Y9, Y0, Y10)
	YVALM(32, Y12, Y1, Y11)
	VNEXT(row8y, page8y)

	VMASKMOVPD Y0, Y10, 0(DI)
	VMASKMOVPD Y1, Y11, 32(DI)
	VZEROUPPER
	RET
