//go:build amd64 && !purego

// CPU feature queries behind the kernel gates (cpu.go).

#include "textflag.h"

// func cpuid1ECX() uint32
//
// CPUID leaf 1 ECX: 12 = FMA3, 27 = OSXSAVE, 28 = AVX.
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, ret+0(FP)
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
// without OSXSAVE.
TEXT ·xcr0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
