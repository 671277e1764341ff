package nn

import (
	"fmt"

	"rt3/internal/mat"
)

// ReLU is the rectified-linear activation with cached input sign.
type ReLU struct {
	mask *mat.Matrix
}

// Params implements Module (ReLU has none).
func (r *ReLU) Params() []*Parameter { return nil }

// Forward applies max(0, x) element-wise.
func (r *ReLU) Forward(x *mat.Matrix) *mat.Matrix {
	y := mat.New(x.Rows, x.Cols)
	r.mask = mat.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
			r.mask.Data[i] = 1
		}
	}
	return y
}

// Backward gates the upstream gradient by the forward activation mask.
func (r *ReLU) Backward(dy *mat.Matrix) *mat.Matrix {
	dx := dy.Clone()
	dx.Hadamard(r.mask)
	return dx
}

// GELU is the Gaussian-error linear unit using the tanh approximation,
// matching the activation used in BERT-family models, computed in its
// sigmoid form on the repository's exp (mat.GELU).
type GELU struct {
	x *mat.Matrix

	out   *mat.Matrix
	reuse bool
}

// Params implements Module (GELU has none).
func (g *GELU) Params() []*Parameter { return nil }

// SetBufferReuse toggles the preallocated output buffer (see
// Linear.SetBufferReuse for the aliasing contract).
func (g *GELU) SetBufferReuse(on bool) {
	g.reuse = on
	if !on {
		g.out = nil
		g.x = nil
	}
}

// Forward applies gelu(x) = 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715 x^3)))
// as x / (1 + exp(-2u)), the same function (see mat.GELU). Batches from
// gelu's fork threshold up split by row span across the mat.Fork helpers.
// The input is kept by reference for Backward, as Linear keeps its own.
func (g *GELU) Forward(x *mat.Matrix) *mat.Matrix {
	g.x = x
	y := mat.EnsureShape(&g.out, g.reuse, x.Rows, x.Cols)
	g.out = y
	mat.Fork(x.Rows, len(x.Data)*mat.WorkExp, (*geluRows)(g))
	if !g.reuse {
		g.out = nil
	}
	return y
}

// geluRows is a GELU forward as a mat.Fork body: rows [lo, hi) of g.x
// into g.out.
type geluRows GELU

func (g *geluRows) Range(lo, hi int) {
	c := g.x.Cols
	mat.GELU(g.out.Data[lo*c:hi*c], g.x.Data[lo*c:hi*c])
}

// Backward applies the analytic derivative of the tanh approximation,
// with tanh u taken from the exp Forward runs on (tanh u = 2/(1 +
// exp(-2u)) - 1), so it differentiates exactly the function Forward
// computes.
func (g *GELU) Backward(dy *mat.Matrix) *mat.Matrix {
	dx := mat.New(dy.Rows, dy.Cols)
	for i, v := range g.x.Data {
		t := 2/(1+mat.GELUExp(v)) - 1
		du := mat.GELUScale * (1 + 3*mat.GELUCubic*v*v)
		d := 0.5*(1+t) + 0.5*v*(1-t*t)*du
		dx.Data[i] = dy.Data[i] * d
	}
	return dx
}

// LayerNorm normalizes every row to zero mean / unit variance and applies
// a learned per-feature scale (gamma) and shift (beta).
type LayerNorm struct {
	Dim   int
	Gamma *Parameter
	Beta  *Parameter
	Eps   float64

	xhat   *mat.Matrix
	invStd []float64

	in, res *mat.Matrix // the operands of the forward pass in flight
	out     *mat.Matrix
	reuse   bool
}

// NewLayerNorm creates a LayerNorm over dim features (gamma=1, beta=0).
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:   dim,
		Gamma: NewParameter(name+".gamma", 1, dim),
		Beta:  NewParameter(name+".beta", 1, dim),
		Eps:   1e-5,
	}
	ln.Gamma.Value.Fill(1)
	return ln
}

// Params implements Module.
func (ln *LayerNorm) Params() []*Parameter { return []*Parameter{ln.Gamma, ln.Beta} }

// SetBufferReuse toggles preallocated output and normalization-cache
// buffers (see Linear.SetBufferReuse for the aliasing contract).
func (ln *LayerNorm) SetBufferReuse(on bool) {
	ln.reuse = on
	if !on {
		ln.out = nil
		ln.xhat = nil
		ln.invStd = nil
	}
}

// Forward normalizes each row of x.
func (ln *LayerNorm) Forward(x *mat.Matrix) *mat.Matrix { return ln.ForwardResidual(x, nil) }

// ForwardResidual normalizes each row of x + res (of x when res is nil)
// without forming the sum as a matrix: the residual add, both reductions
// and the scale and shift are one row kernel (mat.NormRow). x and res
// are left as they were.
func (ln *LayerNorm) ForwardResidual(x, res *mat.Matrix) *mat.Matrix {
	if res != nil && (res.Rows != x.Rows || res.Cols != x.Cols) {
		panic(fmt.Sprintf("nn: LayerNorm residual %dx%d on input %dx%d", res.Rows, res.Cols, x.Rows, x.Cols))
	}
	y := mat.EnsureShape(&ln.out, ln.reuse, x.Rows, x.Cols)
	ln.out = y
	ln.xhat = mat.EnsureShape(&ln.xhat, ln.reuse, x.Rows, x.Cols)
	ln.invStd = reusableFloats(&ln.invStd, ln.reuse, x.Rows)
	ln.in, ln.res = x, res
	mat.Fork(x.Rows, len(x.Data)*mat.WorkNorm, (*normRows)(ln))
	ln.in, ln.res = nil, nil
	if !ln.reuse {
		ln.out = nil
	}
	return y
}

// normRows is a LayerNorm forward as a mat.Fork body: rows [lo, hi) of
// ln.in (+ ln.res) into ln.out, ln.xhat and ln.invStd.
type normRows LayerNorm

func (ln *normRows) Range(lo, hi int) {
	var r []float64
	for i := lo; i < hi; i++ {
		if ln.res != nil {
			r = ln.res.Row(i)
		}
		ln.invStd[i] = mat.NormRow(ln.out.Row(i), ln.xhat.Row(i), ln.in.Row(i), r, ln.Gamma.Value.Data, ln.Beta.Value.Data, ln.Eps)
	}
}

// Backward computes gradients for gamma, beta and the input.
func (ln *LayerNorm) Backward(dy *mat.Matrix) *mat.Matrix {
	dx := mat.New(dy.Rows, dy.Cols)
	n := float64(ln.Dim)
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := ln.xhat.Row(i)
		// parameter grads
		for j, v := range dyr {
			ln.Gamma.Grad.Data[j] += v * xh[j]
			ln.Beta.Grad.Data[j] += v
		}
		// input grad: dx = invStd/n * (n*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat))
		var sumD, sumDX float64
		dxh := make([]float64, ln.Dim)
		for j, v := range dyr {
			d := v * ln.Gamma.Value.Data[j]
			dxh[j] = d
			sumD += d
			sumDX += d * xh[j]
		}
		out := dx.Row(i)
		for j := range out {
			out[j] = ln.invStd[i] / n * (n*dxh[j] - sumD - xh[j]*sumDX)
		}
	}
	return dx
}
