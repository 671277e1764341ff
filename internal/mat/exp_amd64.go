//go:build amd64 && !purego

package mat

// tailAsm gates the kernels of exp_amd64.s, whose exponent add needs
// AVX2's 256-bit integer shift and add (CPUID leaf 7 bit 5; the OS half
// of the check is hasAVX's); other hosts run the portable loops of exp.go.
var tailAsm = hasAVX && cpuid7EBX()&(1<<5) != 0

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
