//go:build amd64 && !purego

// amd64 kernel of ChooseTiles (see tiles.go). Squares: per row of eight
// tiles, eight loads of eight positions (one a tile, masked past the
// tile row's end, tiles past the last repeating it: NEXTROW over tile
// offsets), VMULPD, TRANSPOSE8, and one store per position. Scores: four
// patterns at a time, one register each, one VADDPD per kept position
// from +0 in row-major order, their lists interleaved and padded with a
// position whose squares are +0 (x + +0 is x for every norm, never -0);
// then, pattern by pattern, VCMPPD against the best so far and masked
// moves of the norm and the index into the winning lanes.

#include "textflag.h"
#include "pack_amd64.h"

// PICK takes pattern BX's norms in z where they beat the best so far
// (greater, ordered: a NaN never wins), then moves BX on and compares
// it with npat.
#define PICK(z) \
	VCMPPD $0x1E, Z16, z, K1; \
	VMOVAPD z, K1, Z16; \
	VPBROADCASTQ BX, K1, Z17; \
	INCQ BX; \
	CMPQ BX, R10

// func chooseRunZ(best *[8]int, w *float64, ld, psize, n, mask int, kept, rounds *int32, npat int, sq *float64)
TEXT ·chooseRunZ(SB), NOSPLIT, $0-80
	MOVQ w+8(FP), SI
	MOVQ ld+16(FP), DX
	SHLQ $3, DX
	MOVQ psize+24(FP), BX
	SHLQ $3, BX
	MOVQ n+32(FP), CX
	DECQ CX
	XORQ AX, AX
	NEXTROW(AX, R8)
	NEXTROW(R8, R9)
	NEXTROW(R9, R10)
	NEXTROW(R10, R11)
	NEXTROW(R11, R12)
	NEXTROW(R12, R13)
	NEXTROW(R13, R14)
	MOVQ sq+72(FP), DI
	MOVQ psize+24(FP), CX

row:
	MOVQ SI, AX
	MOVQ psize+24(FP), BX

chunk:
	MOVL $0xff, R15
	CMPQ BX, $8
	JGT  load
	MOVQ mask+40(FP), R15

load:
	KMOVW R15, K1
	VMOVUPD.Z (AX), K1, Z0
	VMOVUPD.Z (AX)(R8*1), K1, Z1
	VMOVUPD.Z (AX)(R9*1), K1, Z2
	VMOVUPD.Z (AX)(R10*1), K1, Z3
	VMOVUPD.Z (AX)(R11*1), K1, Z4
	VMOVUPD.Z (AX)(R12*1), K1, Z5
	VMOVUPD.Z (AX)(R13*1), K1, Z6
	VMOVUPD.Z (AX)(R14*1), K1, Z7
	VMULPD Z0, Z0, Z0
	VMULPD Z1, Z1, Z1
	VMULPD Z2, Z2, Z2
	VMULPD Z3, Z3, Z3
	VMULPD Z4, Z4, Z4
	VMULPD Z5, Z5, Z5
	VMULPD Z6, Z6, Z6
	VMULPD Z7, Z7, Z7
	TRANSPOSE8 // Z8 .. Z15: positions 0 .. 7 of the chunk, tiles 0 .. 7
	// positions past the tile row's end store squares of zero, which
	// the next chunk or row overwrites (sq has room for the last row's)
	VMOVUPD Z8, (DI)
	VMOVUPD Z9, 64(DI)
	VMOVUPD Z10, 128(DI)
	VMOVUPD Z11, 192(DI)
	VMOVUPD Z12, 256(DI)
	VMOVUPD Z13, 320(DI)
	VMOVUPD Z14, 384(DI)
	VMOVUPD Z15, 448(DI)
	CMPQ BX, $8
	JLE  rowdone
	ADDQ $64, AX
	ADDQ $512, DI
	SUBQ $8, BX
	JMP  chunk

rowdone:
	SHLQ $6, BX
	ADDQ BX, DI
	ADDQ DX, SI
	DECQ CX
	JNZ  row

	MOVQ kept+48(FP), R8
	MOVQ rounds+56(FP), R9
	MOVQ npat+64(FP), R10
	MOVQ sq+72(FP), DI
	MOVQ $0xBFF0000000000000, AX // -1.0
	VPBROADCASTQ AX, Z16
	VPXORQ Z17, Z17, Z17
	XORQ BX, BX

group:
	MOVLQSX (R9), CX
	ADDQ $4, R9
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	PCALIGN $32

round:
	MOVLQSX 0(R8), AX
	MOVLQSX 4(R8), DX
	MOVLQSX 8(R8), R11
	MOVLQSX 12(R8), R12
	VADDPD (DI)(AX*8), Z0, Z0
	VADDPD (DI)(DX*8), Z1, Z1
	VADDPD (DI)(R11*8), Z2, Z2
	VADDPD (DI)(R12*8), Z3, Z3
	ADDQ $16, R8
	DECQ CX
	JNZ  round

	PICK(Z0)
	JGE done
	PICK(Z1)
	JGE done
	PICK(Z2)
	JGE done
	PICK(Z3)
	JLT group

done:
	MOVQ best+0(FP), AX
	VMOVDQU64 Z17, (AX)
	VZEROUPPER
	RET
