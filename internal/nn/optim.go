package nn

import "math"

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and re-applies parameter masks so pruned
	// weights remain exactly zero.
	Step(params []*Parameter)
}

// Adam implements the Adam optimizer (Kingma & Ba, 2015).
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Parameter][]float64
	v map[*Parameter][]float64
}

// NewAdam returns Adam with standard hyperparameters and the given rate.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Parameter][]float64),
		v: make(map[*Parameter][]float64),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Parameter) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		p.MaskGrad()
		grad := p.Gradient()
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = make([]float64, len(grad.Data))
			v = make([]float64, len(grad.Data))
			a.m[p] = m
			a.v[p] = v
		}
		for i, g := range grad.Data {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / c1
			vh := v[i] / c2
			p.Value.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		p.ApplyMask()
	}
}

// ClipGrads rescales all gradients so their global l2 norm is at most
// maxNorm. It returns the pre-clip norm.
func ClipGrads(params []*Parameter, maxNorm float64) float64 {
	var total float64
	for _, p := range params {
		for _, g := range p.Gradient().Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		s := maxNorm / norm
		for _, p := range params {
			p.Grad.Scale(s)
		}
	}
	return norm
}
