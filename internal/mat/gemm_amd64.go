//go:build amd64 && !purego

package mat

// hasAVX gates the float64 AVX micro-kernel; the float32/int8 kernels
// need only baseline SSE2, which amd64 guarantees.
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

// kern8x4SSE32 is the float32 8x4 tile: float32 accumulation, float64
// stores, bit-identical to kern8x4[float32] (gemm_amd64.s).
//
//go:noescape
func kern8x4SSE32(bp, a *float32, lda int, c *float64, ldc, k, rows int)

// kern8x4SSE8 is the int8 8x4 tile over one pair-interleaved panel:
// PMADDWD into exact int32 accumulators, bit-identical to kern1x4Int8
// (gemm_amd64.s). c is a 8x4 int32 tile, kp counts k-pairs.
//
//go:noescape
func kern8x4SSE8(bp *int8, a *int16, lda int, c *int32, ldc, kp int)

// asmTile returns the 8x4 tile kernel of precision F for gemmPanelRows:
// the AVX kernel for float64 when the CPU has AVX, the SSE kernel for
// float32 (baseline, no gate), nil otherwise.
func asmTile[F Float]() func(bp, a *F, lda int, c *float64, ldc, k, rows int) {
	var tile any
	switch any(F(0)).(type) {
	case float64:
		if hasAVX {
			tile = kern8x4AVX
		}
	case float32:
		tile = kern8x4SSE32
	}
	t, _ := tile.(func(bp, a *F, lda int, c *float64, ldc, k, rows int))
	return t
}

// gemm8Asm is the amd64 int8 path: 8-row blocks run the PMADDWD kernel
// into a stack tile, dequantized row by row; remainder rows fall back
// to the scalar kernel. Integer accumulation is exact, so both paths
// agree bit-for-bit.
func gemm8Asm(dst *Matrix, s *int8Scratch, p *PanelsInt8) bool {
	M, K, N := dst.Rows, p.K, p.N
	kp := (K + 1) / 2
	np := (N + PanelWidth - 1) / PanelWidth
	stride := kp * 2 * PanelWidth
	var tile [8 * PanelWidth]int32
	for mc := 0; mc < M; mc += gemmMC {
		m1 := mc + gemmMC
		if m1 > M {
			m1 = M
		}
		for pi := 0; pi < np; pi++ {
			j0 := pi * PanelWidth
			nw := N - j0
			if nw > PanelWidth {
				nw = PanelWidth
			}
			bp := p.Data[pi*stride : (pi+1)*stride]
			sw, cs := p.Scale[j0:j0+nw], p.ColSum[j0:j0+nw]
			m := mc
			for ; m+8 <= m1; m += 8 {
				kern8x4SSE8(&bp[0], &s.q[m*kp*2], kp*2, &tile[0], PanelWidth, kp)
				for r := 0; r < 8; r++ {
					dequantStore4(dst.Data[(m+r)*N+j0:(m+r)*N+j0+nw],
						s.scale[m+r], s.zp[m+r], sw, cs, tile[r*PanelWidth:])
				}
			}
			for ; m < m1; m++ {
				a := s.q[m*kp*2 : (m+1)*kp*2]
				tile[0], tile[1], tile[2], tile[3] = kern1x4Int8(bp, a)
				dequantStore4(dst.Data[m*N+j0:m*N+j0+nw],
					s.scale[m], s.zp[m], sw, cs, tile[:PanelWidth])
			}
		}
	}
	return true
}
