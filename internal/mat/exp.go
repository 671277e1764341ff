package mat

import (
	"fmt"
	"math"
)

// This file is the vector math under the scalar tail of a step: exp
// (under every softmax and under GELU) and the residual + layer-norm row
// kernel. docs/ARCHITECTURE.md, "Vector math", states the policy; in
// short:
//
// # One definition
//
// Exp below — a fixed polynomial in portable Go — IS the repository's
// exp. Nothing under internal/mat or internal/nn calls math.Exp or
// math.Tanh, so probabilities and activations are the same bits on every
// host and build tag. The slice forms (Softmax, GELU, NormRow) have
// three twins, picked once from CPUID/XCR0 by tailGate: avx512 runs the
// ZMM kernels of exp_amd64.s (32 elements per iteration, four 8-lane
// chains), avx the YMM kernels (8 per iteration, two 4-lane chains), go
// the portable loops, which are what every other host runs. The row norm
// and expSub have a YMM kernel only, which both assembly twins run. The
// twins execute the same operations in the same order with every
// product and sum separately rounded, so they agree at tolerance 0,
// exactly as the lane kernels, which fuse, do with laneKernGo.
//
// # No fusion
//
// Every product that feeds a sum is written float64(a*b) + c: the
// explicit conversion is what the Go specification gives to forbid a
// fused multiply-add, so ports that have one (arm64, GOAMD64=v3) compute
// what the VMULPD/VADDPD pairs of the assembly compute.

// The constants of Exp. expTab holds the same values in the order the
// assembly indexes them, so the twins cannot be given different ones.
const (
	expLog2e = 1.44269504088896338700e+00
	expLn2Hi = 6.93147180369123816490e-01 // ln 2 with the low 20 mantissa bits clear: k*expLn2Hi is exact
	expLn2Lo = 1.90821492927058770002e-10 // ln 2 - expLn2Hi
	expMagic = 0x1.8p52                   // adding it rounds to an integer, which lands in the low mantissa bits
	expMin   = -708                       // below: exactly +0 (the result would be subnormal from -708.4)
	expMax   = 709                        // above: +Inf (math.Exp overflows at 709.78)

	// GELUScale and GELUCubic are the constants of the tanh-approximated
	// GELU, gelu(v) = v/2 (1 + tanh(GELUScale (v + GELUCubic v^3))).
	GELUScale = 0.7978845608028654 // sqrt(2/pi)
	GELUCubic = 0.044715

	geluNeg2Scale = -2 * GELUScale // exact: GELU's exponent is -2u

	// offsets into expTab (the assembly uses them times 8)
	tabCoef = 4  // 1/13! .. 1/2!, Horner order
	tabOne  = 16 // the coefficients of r and 1, and GELU's 1 + e
)

var expTab = [...]float64{
	expLog2e, expMagic, expLn2Hi, expLn2Lo, // 0-3
	1.0 / 6227020800, 1.0 / 479001600, 1.0 / 39916800, 1.0 / 3628800, // tabCoef
	1.0 / 362880, 1.0 / 40320, 1.0 / 5040, 1.0 / 720,
	1.0 / 120, 1.0 / 24, 1.0 / 6, 1.0 / 2,
	1,                           // tabOne
	expMin, expMax, math.Inf(1), // 17-19
	GELUCubic, geluNeg2Scale, // 20, 21
}

// Exp returns e**x: the repository's definition of exp, within 4 ulp of
// math.Exp on [-708, 709] (measured worst case 2), exactly +0 below
// -708, +Inf above 709, and x itself for NaN.
//
// x = k ln2 + r with k = round(x log2 e) taken by the magic-number add
// and |r| <= ln2/2 + 2^-40 by the two-part ln 2; exp(r) is the degree-13
// Taylor polynomial in one Horner chain (truncation 6e-18 relative); 2^k
// is an add into the exponent bits, which cannot leave the normal range
// inside the interval above.
func Exp(x float64) float64 {
	switch {
	case x != x:
		return x
	case x < expMin:
		return 0
	case x > expMax:
		return math.Inf(1)
	}
	t := float64(x*expLog2e) + expMagic
	k := t - expMagic
	r := x - float64(k*expLn2Hi)
	r -= float64(k * expLn2Lo)
	p := expTab[tabCoef]
	for _, c := range expTab[tabCoef+1 : tabOne+1] {
		p = float64(p*r) + c
	}
	p = float64(p*r) + 1
	// the low mantissa bits of t hold k in two's complement
	return math.Float64frombits(math.Float64bits(p) + math.Float64bits(t)<<52)
}

// expBlock is how many elements one iteration of the YMM kernels takes:
// two 4-lane vectors, two interleaved Horner chains. (The ZMM kernels
// take 32, then 8 at a time, then a masked last block.)
const expBlock = 8

// expSub computes dst[i] = Exp(src[i] - shift) on the given twin; dst
// and src have equal length and may be the same slice. A shift of 0 is
// exact. Both assembly twins run the YMM kernel: outside tests only the
// softmax of the go and avx twins calls it (softmaxZ has its own exp
// pass).
func expSub(dst, src []float64, shift float64, kern isa) {
	if kern != isaGo {
		expBlocks(dst, src, shift, false)
		return
	}
	for i, v := range src {
		dst[i] = Exp(v - shift)
	}
}

// expBlocks runs one of the two YMM kernels over src: whole blocks in
// place, the last partial block through a block-sized copy (what the
// padding lanes compute is dropped).
func expBlocks(dst, src []float64, shift float64, gelu bool) {
	n := len(src) &^ (expBlock - 1)
	if n > 0 {
		expKern(&dst[0], &src[0], n, shift, gelu)
	}
	if n < len(src) {
		var tail [expBlock]float64
		copy(tail[:], src[n:])
		expKern(&tail[0], &tail[0], expBlock, shift, gelu)
		copy(dst[n:], tail[:])
	}
}

func expKern(dst, src *float64, n int, shift float64, gelu bool) {
	if gelu {
		gelu8AVX(dst, src, n, &expTab[0])
	} else {
		expSub8AVX(dst, src, n, shift, &expTab[0])
	}
}

// Softmax writes the numerically stable softmax of src into dst (they
// may be the same slice): the maximum, Exp(v - max) through expSub, the
// sum of those in ascending order, one multiply by its reciprocal. An
// entry of -Inf beside a finite one comes out exactly 0. This is the one
// softmax body: Matrix.SoftmaxRows and the attention core run it per
// row. It panics if the lengths differ or are zero.
func Softmax(dst, src []float64) {
	if len(dst) != len(src) || len(src) == 0 {
		panic(fmt.Sprintf("mat: Softmax of %d elements into %d", len(src), len(dst)))
	}
	softmax(dst, src, tailHost)
}

// softmax is Softmax on the given twin. The ZMM twin is one call of
// three passes — a vector max, one exp pass that adds the ascending sum
// as it stores, a vector scale — that compute the portable passes'
// bits: a maximum is exact in any order but for the sign of a zero,
// which no x - max can see, and the sum is the same serial chain.
func softmax(dst, src []float64, kern isa) {
	if kern == isaZ {
		softmaxZ(&dst[0], &src[0], len(src), &expTab[0])
		return
	}
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	expSub(dst, src, maxv, kern)
	// Go leaves to the compiler which NaN an add or multiply of two NaNs
	// returns (it may swap the operands of either), so neither loop makes
	// one: a NaN sum keeps its first NaN, and where the reciprocal is
	// NaN an entry that is NaN keeps its own bits — what the assembly's
	// VADDSD and VMULPD give with the sum and the entry as first source.
	var sum float64
	for _, e := range dst {
		if sum += e; sum != sum {
			break
		}
	}
	inv := 1 / sum
	for i, e := range dst {
		if e == e || inv == inv {
			dst[i] = e * inv
		}
	}
}

// GELU computes dst[i] = gelu(src[i]) in the sigmoid form of the tanh
// approximation: with u = GELUScale (v + GELUCubic v^3),
// 1 + tanh u = 2/(1 + e^(-2u)), so gelu(v) = v / (1 + Exp(-2u)) — one
// exp and one divide, and relatively accurate where v/2 (1 + tanh u)
// cancels to 0 (v below about -6). dst and src have equal length and may
// be the same slice.
func GELU(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mat: GELU of %d elements into %d", len(src), len(dst)))
	}
	gelu(dst, src, tailHost)
}

func gelu(dst, src []float64, kern isa) {
	switch {
	case kern == isaZ && len(src) > 0:
		geluZ(&dst[0], &src[0], len(src), &expTab[0])
	case kern == isaAVX:
		expBlocks(dst, src, 0, true)
	case kern == isaGo:
		for i, v := range src {
			dst[i] = v / (1 + GELUExp(v))
		}
	}
}

// GELUExp returns Exp(-2u) for GELU's u = GELUScale (v + GELUCubic v^3):
// gelu(v) = v / (1 + GELUExp(v)) and tanh u = 2/(1 + GELUExp(v)) - 1, so
// a derivative built on it differentiates the function GELU computes.
func GELUExp(v float64) float64 {
	w := float64(float64(GELUCubic*v) * v)
	return Exp(geluNeg2Scale * (v + float64(w*v)))
}

// NormBlock is the number of partial sums each reduction of NormRow
// keeps: element j of the row adds into partial j mod NormBlock, in
// ascending j.
const NormBlock = 16

// sum16 combines the partial sums in the kernel's fixed order: the four
// partials of each lane pairwise, then the four lanes pairwise.
func sum16(p *[NormBlock]float64) float64 {
	var t [4]float64
	for l := range t {
		t[l] = (p[l] + p[l+4]) + (p[l+8] + p[l+12])
	}
	return (t[0] + t[2]) + (t[1] + t[3])
}

// NormRow layer-normalises one row of x + res: with s = x + res (s = x
// when res is nil), mean = Σs/n and var = Σ(s-mean)²/n, it stores
// xhat = (s - mean) * inv and out = xhat*gamma + beta, and returns
// inv = 1/sqrt(var + eps). Both sums run over NormBlock partial sums
// combined in a fixed order (sum16), which is what lets the assembly
// kernel keep them in vector lanes. All slices have the row's length;
// out and xhat may alias x or res, not each other.
func NormRow(out, xhat, x, res, gamma, beta []float64, eps float64) float64 {
	n := len(x)
	if n == 0 || len(out) != n || len(xhat) != n || (res != nil && len(res) != n) || len(gamma) != n || len(beta) != n {
		panic(fmt.Sprintf("mat: NormRow of %d elements: %d residual, %d/%d scale and shift, into %d and %d",
			n, len(res), len(gamma), len(beta), len(out), len(xhat)))
	}
	return normRow(out, xhat, x, res, gamma, beta, eps, tailHost)
}

// normRow is NormRow on the given twin. Both assembly twins run the YMM
// kernel, which takes rows of whole NormBlocks (every model width this
// repository serves).
func normRow(out, xhat, x, res, gamma, beta []float64, eps float64, kern isa) float64 {
	n := len(x)
	if kern != isaGo && n%NormBlock == 0 {
		var r *float64
		if res != nil {
			r = &res[0]
		}
		return normRow16AVX(&out[0], &xhat[0], &x[0], r, &gamma[0], &beta[0], n, eps)
	}
	var p [NormBlock]float64
	if res == nil {
		for j, s := range x {
			xhat[j] = s
			p[j%NormBlock] += s
		}
	} else {
		for j, v := range x {
			s := v + res[j]
			xhat[j] = s
			p[j%NormBlock] += s
		}
	}
	mean := sum16(&p) / float64(n)
	p = [NormBlock]float64{}
	for j, s := range xhat {
		d := s - mean
		xhat[j] = d
		p[j%NormBlock] += float64(d * d)
	}
	inv := 1 / math.Sqrt(sum16(&p)/float64(n)+eps)
	for j, d := range xhat {
		h := d * inv
		xhat[j] = h
		out[j] = float64(h*gamma[j]) + beta[j]
	}
	return inv
}
