//go:build amd64 && !purego

package mat

// expSub8AVX computes dst[i] = Exp(src[i] - shift) for i < n, n a
// positive multiple of expBlock; tab is &expTab[0]. dst may be src.
// Bit-identical to Exp.
//
//go:noescape
func expSub8AVX(dst, src *float64, n int, shift float64, tab *float64)

// gelu8AVX computes dst[i] = src[i] / (1 + GELUExp(src[i])) for i < n,
// n a positive multiple of expBlock; tab is &expTab[0]. dst may be src.
// Bit-identical to the portable loop of gelu.
//
//go:noescape
func gelu8AVX(dst, src *float64, n int, tab *float64)

// normRow16AVX is normRow for a row of n elements, n a positive multiple
// of NormBlock; res may be nil. Bit-identical to the portable loop.
//
//go:noescape
func normRow16AVX(out, xhat, x, res, gamma, beta *float64, n int, eps float64) float64

// geluZ is gelu8AVX in ZMM registers for any n >= 1. Needs AVX-512F.
//
//go:noescape
func geluZ(dst, src *float64, n int, tab *float64)

// softmaxZ computes dst = softmax(src[:n]), n >= 1, in ZMM registers,
// in Softmax's three passes (the maximum, Exp of every entry minus it
// with their ascending sum, one multiply by its reciprocal); tab is
// &expTab[0]; dst may be src. Needs AVX-512F. Bit-identical to the
// portable loops.
//
//go:noescape
func softmaxZ(dst, src *float64, n int, tab *float64)
