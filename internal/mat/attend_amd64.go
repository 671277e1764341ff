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
