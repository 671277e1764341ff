//go:build amd64 && !purego

package mat

// hasAVX gates the AVX micro-kernel kern8x4AVX; other hosts run the
// portable tiles of gemm.go.
var hasAVX = cpuHasAVX()

// cpuHasAVX reports CPUID+XGETBV AVX support (gemm_amd64.s).
func cpuHasAVX() bool

// cpuHasAVX512F gates the ZMM lane kernels: the AVX-512 foundation, and
// an OS that saves opmask and ZMM state too (XCR0 bits 1, 2, 5, 6, 7).
var cpuHasAVX512F = hasAVX && cpuid7EBX()&(1<<16) != 0 && xcr0()&0xE6 == 0xE6

// cpuid7EBX returns the CPUID leaf 7 feature bits, 0 on a CPU without
// that leaf; xcr0 the XGETBV state mask, valid only after hasAVX
// (gemm_amd64.s). tailAsm used to read leaf 7 unchecked, safely: it is
// only consulted after hasAVX, and every AVX CPU has leaf 7.
func cpuid7EBX() uint32
func xcr0() uint32

// kern8x4AVX computes an 8x4 accumulator tile from one packed panel and
// stores its first rows rows (gemm_amd64.s); a holds at least rows rows.
// Strict VMULPD/VADDPD: bit-identical to kern8x4.
//
//go:noescape
func kern8x4AVX(bp, a *float64, lda int, c *float64, ldc, k, rows int)
