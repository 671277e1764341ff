//go:build amd64 && !purego

package mat

// vecMat16AVX computes dst[j] = scale * Σ_i a[i]*b[i*stride+j] for
// j < cols, i ascending over n >= 1 rows, AttendBlock columns at a time
// (attend_amd64.s). It loads whole blocks — b must be readable to cols
// rounded up to AttendBlock in every row — and stores only cols
// results. Bit-identical to vecMatGo.
//
//go:noescape
func vecMat16AVX(dst, a *float64, n int, b *float64, stride, cols int, scale float64)

// vecMatZ is vecMat16AVX in ZMM registers for cols a positive multiple
// of AttendBlock: 64 columns per pass, then one pass of 48, 32 or 16.
// Needs AVX-512F (attendGate).
//
//go:noescape
func vecMatZ(dst, a *float64, n int, b *float64, stride, cols int, scale float64)
