package testutil

import (
	"math"

	"rt3/internal/mat"
)

// Naive matrix-product references shared by the mat, kernel, and nn
// test suites: the exact loops the production kernels replaced. Each
// accumulates every dst element in ascending-k order, the property the
// bit-identity tests key on — keep them boring.

// NaiveMatMul is the untiled reference for dst = a @ b.
func NaiveMatMul(dst, a, b *mat.Matrix) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < n; j++ {
			var s float64
			for k, av := range ai {
				s += av * b.Data[k*n+j]
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
				s += av * bj[k]
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
				di[j] += av * bv
			}
		}
	}
}

// NaiveAttend is the scalar reference for one head-row of attention
// over the rows of k and v (both rows x len(q)): each score an
// ascending-feature dot product then one multiply by scale, the
// max-subtracted softmax loop of mat.SoftmaxRows (restated here, so the
// reference shares no code with the core), and each context element an
// ascending-row sum of p[j]*v[j] with no zero skip. It writes the
// context into out and returns the probabilities.
func NaiveAttend(out, q []float64, k, v *mat.Matrix, scale float64) []float64 {
	p := make([]float64, k.Rows)
	for j := range p {
		var s float64
		for c, qv := range q {
			s += qv * k.Data[j*k.Cols+c]
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
		p[j] = math.Exp(s - maxv)
		sum += p[j]
	}
	inv := 1 / sum
	for j := range p {
		p[j] *= inv
	}
	for c := range out {
		var s float64
		for j, pv := range p {
			s += pv * v.Data[j*v.Cols+c]
		}
		out[c] = s
	}
	return p
}
