// Macros of the two kernels that gather eight rows and transpose them
// in registers: packLanes8Z (lanes_amd64.s) and chooseRunZ
// (tiles_amd64.s).

// NEXTROW points r at the row after prev (row stride BX) while CX, the
// rows left after prev, is positive, and at prev itself after: lanes
// past the last row repeat it.
#define NEXTROW(prev, r) \
	LEAQ (prev)(BX*1), r; \
	DECQ CX; \
	CMOVQLT prev, r

// TRANSPOSE8 transposes the 8x8 block of float64s whose rows are Z0 ..
// Z7: Z8 .. Z15 receive its columns, and Z0 .. Z7 are clobbered. Two
// rounds of VUNPCK{L,H}PD pair the rows' elements, then two of
// VSHUFF64X2 move 128-bit blocks (0, 2) and (1, 3) into place.
#define TRANSPOSE8 \
	VUNPCKLPD Z1, Z0, Z8; \
	VUNPCKHPD Z1, Z0, Z9; \
	VUNPCKLPD Z3, Z2, Z10; \
	VUNPCKHPD Z3, Z2, Z11; \
	VUNPCKLPD Z5, Z4, Z12; \
	VUNPCKHPD Z5, Z4, Z13; \
	VUNPCKLPD Z7, Z6, Z14; \
	VUNPCKHPD Z7, Z6, Z15; \
	VSHUFF64X2 $0x88, Z10, Z8, Z0; \
	VSHUFF64X2 $0xDD, Z10, Z8, Z1; \
	VSHUFF64X2 $0x88, Z14, Z12, Z2; \
	VSHUFF64X2 $0xDD, Z14, Z12, Z3; \
	VSHUFF64X2 $0x88, Z11, Z9, Z4; \
	VSHUFF64X2 $0xDD, Z11, Z9, Z5; \
	VSHUFF64X2 $0x88, Z15, Z13, Z6; \
	VSHUFF64X2 $0xDD, Z15, Z13, Z7; \
	VSHUFF64X2 $0x88, Z2, Z0, Z8; \
	VSHUFF64X2 $0x88, Z6, Z4, Z9; \
	VSHUFF64X2 $0x88, Z3, Z1, Z10; \
	VSHUFF64X2 $0x88, Z7, Z5, Z11; \
	VSHUFF64X2 $0xDD, Z2, Z0, Z12; \
	VSHUFF64X2 $0xDD, Z6, Z4, Z13; \
	VSHUFF64X2 $0xDD, Z3, Z1, Z14; \
	VSHUFF64X2 $0xDD, Z7, Z5, Z15
