//go:build amd64 && !purego

package mat

// attendScoresZ stores p[j] = scale * Σ_c q[c]*key(j, c) for the j <
// rows of a window in pages of ld rows: page i is the slice k points
// at plus i, its keys feature-major from element ko at stride ld (see
// AttendPaged). It loads whole 16-key blocks — every page must be
// readable to its rows rounded up to AttendBlock — and stores only the
// rows scores (attend_amd64.s). Needs AVX-512F (attendGate).
//
//go:noescape
func attendScoresZ(p, q *float64, hd int, k *[]float64, ko, ld, rows int, scale float64)

// attendValuesZ stores out[c] = Σ_j p[j]*value(j, c) for the hd columns
// c, j ascending over the window's rows in pages of ld rows: page i's
// values row-major from element vo at row stride vs. It loads and
// stores nothing outside the head's columns. Needs AVX-512F.
//
//go:noescape
func attendValuesZ(out, p *float64, hd int, v *[]float64, vo, ld, vs, rows int)

// attendScoresAVX and attendValuesAVX are the two passes in YMM
// registers. Need AVX.
//
//go:noescape
func attendScoresAVX(p, q *float64, hd int, k *[]float64, ko, ld, rows int, scale float64)

//go:noescape
func attendValuesAVX(out, p *float64, hd int, v *[]float64, vo, ld, vs, rows int)
