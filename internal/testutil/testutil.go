// Package testutil provides shared helpers for the test suites:
// finite-difference gradient checking against hand-written backward
// passes, and tolerance comparison utilities.
package testutil

import (
	"math"
	"testing"

	"rt3/internal/nn"
)

// GradCheck verifies the analytic gradients stored in params against
// central finite differences of loss(). loss must recompute the forward
// AND backward pass from scratch (accumulating into zeroed grads) each
// call; the analytic gradient is read after one call. Reports errors for
// relative deviations above tol.
func GradCheck(t *testing.T, params []*nn.Parameter, loss func() float64, tol float64) {
	t.Helper()
	nn.ZeroGrads(params)
	loss()
	analytic := make([][]float64, len(params))
	for i, p := range params {
		analytic[i] = append([]float64(nil), p.Gradient().Data...)
	}
	const h = 1e-5
	for pi, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			nn.ZeroGrads(params)
			lp := loss()
			p.Value.Data[i] = orig - h
			nn.ZeroGrads(params)
			lm := loss()
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * h)
			ana := analytic[pi][i]
			if !Close(num, ana, tol) {
				t.Errorf("param %s[%d]: numeric %.6g vs analytic %.6g", p.Name, i, num, ana)
			}
		}
	}
}

// Close reports whether a and b agree within tol, using a combined
// absolute/relative criterion.
func Close(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*(1+scale)
}
