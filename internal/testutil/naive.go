package testutil

import (
	"math"

	"rt3/internal/mat"
)

// Naive matrix-product references shared by the mat, kernel, and nn
// test suites: the exact loops the production kernels replaced. Each
// accumulates every dst element in ascending-k order, the property the
// bit-identity tests key on — keep them boring. NaiveMatMul fuses each
// product into its sum, as every served product does; the others keep
// their products separately rounded, spelled float64(a*b) so that no
// port fuses them on its own.

// NaiveMatMul is the untiled reference for dst = a @ b: s = fma(a[i][k],
// b[k][j], s) in ascending k, with no zero skip.
func NaiveMatMul(dst, a, b *mat.Matrix) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < n; j++ {
			var s float64
			for k, av := range ai {
				s = math.FMA(av, b.Data[k*n+j], s)
			}
			dst.Data[i*n+j] = s
		}
	}
}

// NaiveMatMulT is the untiled reference for dst = a @ b^T.
func NaiveMatMulT(dst, a, b *mat.Matrix) {
	for i := 0; i < a.Rows; i++ {
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < b.Rows; j++ {
			bj := b.Data[j*b.Cols : (j+1)*b.Cols]
			var s float64
			for k, av := range ai {
				s += float64(av * bj[k])
			}
			dst.Data[i*dst.Cols+j] = s
		}
	}
}

// NaiveMatMulTA is the untiled reference for dst = a^T @ b, with the
// same zero-skip the production gradient kernel applies.
func NaiveMatMulTA(dst, a, b *mat.Matrix) {
	dst.Zero()
	n := b.Cols
	for r := 0; r < a.Rows; r++ {
		ar := a.Data[r*a.Cols : (r+1)*a.Cols]
		br := b.Data[r*n : (r+1)*n]
		for i, av := range ar {
			if av == 0 {
				continue
			}
			di := dst.Data[i*n : (i+1)*n]
			for j, bv := range br {
				di[j] += float64(av * bv)
			}
		}
	}
}

// NaiveExp restates the repository's definition of exp (mat.Exp) without
// sharing code or technique with it: the integer k = round-half-even(x
// log2 e) by math.RoundToEven where the core adds a magic number, the
// two-part reduction r = x - k ln2Hi - k ln2Lo, the degree-13 Taylor
// polynomial in Horner order with every product rounded before its sum
// (the conversions forbid a fused multiply-add), and the scaling by 2^k
// through math.Ldexp — exact for a normal result — where the core adds
// into the exponent bits. Below -708 it is +0, above 709 +Inf, NaN stays.
func NaiveExp(x float64) float64 {
	if math.IsNaN(x) {
		return x
	}
	if x < -708 {
		return 0
	}
	if x > 709 {
		return math.Inf(1)
	}
	ln2Hi := math.Float64frombits(0x3fe62e42fee00000)
	ln2Lo := math.Float64frombits(0x3dea39ef35793c76)
	k := math.RoundToEven(x * math.Log2E)
	r := x - float64(k*ln2Hi)
	r = r - float64(k*ln2Lo)
	p := 1.0 / 6227020800 // 1/13!
	for _, fact := range []float64{479001600, 39916800, 3628800, 362880, 40320, 5040, 720, 120, 24, 6, 2, 1, 1} {
		p = float64(p*r) + 1/fact
	}
	return math.Ldexp(p, int(k))
}

// strided16 sums v the way the layer-norm row kernel does: element j
// into partial sum j mod 16 in ascending j, each lane's four partials
// pairwise, then the four lanes pairwise.
func strided16(v []float64) float64 {
	var p [16]float64
	for j, x := range v {
		p[j%16] += x
	}
	l0 := (p[0] + p[4]) + (p[8] + p[12])
	l1 := (p[1] + p[5]) + (p[9] + p[13])
	l2 := (p[2] + p[6]) + (p[10] + p[14])
	l3 := (p[3] + p[7]) + (p[11] + p[15])
	return (l0 + l2) + (l1 + l3)
}

// NaiveLayerNorm is the scalar reference for one row of the residual +
// layer norm: out = (s - mean) * inv * gamma + beta over s = x + res (s =
// x when res is nil), with mean = Σs/n, inv = 1/sqrt(Σ(s - mean)²/n +
// eps) and both sums in the row kernel's order (strided16), restated
// here so the reference shares no code with mat.NormRow.
func NaiveLayerNorm(out, x, res, gamma, beta []float64, eps float64) {
	n := float64(len(x))
	s := append([]float64(nil), x...)
	for j := range res {
		s[j] += res[j]
	}
	mean := strided16(s) / n
	sq := make([]float64, len(s))
	for j := range s {
		s[j] -= mean
		sq[j] = s[j] * s[j]
	}
	inv := 1 / math.Sqrt(strided16(sq)/n+eps)
	for j := range s {
		h := s[j] * inv
		out[j] = float64(h*gamma[j]) + beta[j]
	}
}

// NaiveAttend is the scalar reference for one head-row of attention
// over the rows of k and v (both rows x len(q)): each score an
// ascending-feature dot product then one multiply by scale, the
// max-subtracted softmax loop of mat.Softmax on NaiveExp (both restated
// here, so the reference shares no code with the core), and each context
// element an ascending-row sum of p[j]*v[j] with no zero skip. It writes
// the context into out and returns the probabilities.
func NaiveAttend(out, q []float64, k, v *mat.Matrix, scale float64) []float64 {
	p := make([]float64, k.Rows)
	for j := range p {
		var s float64
		for c, qv := range q {
			s += float64(qv * k.Data[j*k.Cols+c])
		}
		p[j] = s * scale
	}
	maxv := p[0]
	for _, s := range p[1:] {
		if s > maxv {
			maxv = s
		}
	}
	var sum float64
	for j, s := range p {
		p[j] = NaiveExp(s - maxv)
		sum += p[j]
	}
	inv := 1 / sum
	for j := range p {
		p[j] *= inv
	}
	for c := range out {
		var s float64
		for j, pv := range p {
			s += float64(pv * v.Data[j*v.Cols+c])
		}
		out[c] = s
	}
	return p
}
