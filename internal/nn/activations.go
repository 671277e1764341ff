package nn

import (
	"math"

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
// matching the activation used in BERT-family models.
type GELU struct {
	x *mat.Matrix

	out   *mat.Matrix
	reuse bool
}

// Params implements Module (GELU has none).
func (g *GELU) Params() []*Parameter { return nil }

const (
	geluC  = 0.7978845608028654 // sqrt(2/pi)
	geluC3 = 0.044715
)

// SetBufferReuse toggles preallocated output and input-cache buffers
// (see Linear.SetBufferReuse for the aliasing contract).
func (g *GELU) SetBufferReuse(on bool) {
	g.reuse = on
	if !on {
		g.out = nil
		g.x = nil
	}
}

// Forward applies gelu(x) = 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))).
// Batches from a decode step's 8 x 768 up split by row span across the
// mat.Fork helpers.
func (g *GELU) Forward(x *mat.Matrix) *mat.Matrix {
	xc := mat.EnsureShape(&g.x, g.reuse, x.Rows, x.Cols)
	xc.CopyFrom(x)
	g.x = xc
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
	x := g.x.Data[lo*c : hi*c]
	y := g.out.Data[lo*c : hi*c][:len(x)]
	for i, v := range x {
		y[i] = 0.5 * v * (1 + math.Tanh(geluC*(v+geluC3*v*v*v)))
	}
}

// Backward applies the analytic derivative of the tanh approximation.
func (g *GELU) Backward(dy *mat.Matrix) *mat.Matrix {
	dx := mat.New(dy.Rows, dy.Cols)
	for i, v := range g.x.Data {
		u := geluC * (v + geluC3*v*v*v)
		t := math.Tanh(u)
		du := geluC * (1 + 3*geluC3*v*v)
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

	out   *mat.Matrix
	reuse bool
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
func (ln *LayerNorm) Forward(x *mat.Matrix) *mat.Matrix {
	y := mat.EnsureShape(&ln.out, ln.reuse, x.Rows, x.Cols)
	ln.xhat = mat.EnsureShape(&ln.xhat, ln.reuse, x.Rows, x.Cols)
	ln.invStd = reusableFloats(&ln.invStd, ln.reuse, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mean := mat.Mean(row)
		variance := mat.Variance(row)
		inv := 1 / math.Sqrt(variance+ln.Eps)
		ln.invStd[i] = inv
		xh := ln.xhat.Row(i)
		out := y.Row(i)
		for j, v := range row {
			h := (v - mean) * inv
			xh[j] = h
			out[j] = h*ln.Gamma.Value.Data[j] + ln.Beta.Value.Data[j]
		}
	}
	return y
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
