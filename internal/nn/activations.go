package nn

import (
	"fmt"

	"rt3/internal/mat"
)

// GELU is the Gaussian-error linear unit using the tanh approximation,
// matching the activation used in BERT-family models, computed in its
// sigmoid form on the repository's exp (mat.GELU).
type GELU struct {
	// the input of a forward with buffer reuse off, for the backward pass
	x *mat.Matrix

	in, y *mat.Matrix // the operand and output of the forward in flight
	out   **mat.Matrix
}

// Params implements Module (GELU has none).
func (g *GELU) Params() []*Parameter { return nil }

// SetOutputSlot turns buffer reuse on with Forward writing through slot
// (see Linear.SetOutputSlot). Given the slot its input was written
// through, GELU writes over its input in place.
func (g *GELU) SetOutputSlot(slot **mat.Matrix) {
	g.out = slot
	g.x = nil
}

// Forward applies gelu(x) = 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715 x^3)))
// as x / (1 + exp(-2u)), the same function (see mat.GELU). Batches from
// gelu's fork threshold up split by row span across the mat.Fork helpers.
// With buffer reuse off the input is kept by reference for Backward, as
// Linear keeps its own.
func (g *GELU) Forward(x *mat.Matrix) *mat.Matrix {
	g.x = nil
	if g.out == nil {
		g.x = x
	}
	y := output(g.out, x.Rows, x.Cols)
	g.in, g.y = x, y
	mat.Fork(x.Rows, len(x.Data)*mat.WorkExp, (*geluRows)(g))
	g.in, g.y = nil, nil
	return y
}

// geluRows is a GELU forward as a mat.Fork body: rows [lo, hi) of g.in
// into g.y.
type geluRows GELU

func (g *geluRows) Range(lo, hi int) {
	c := g.in.Cols
	mat.GELU(g.y.Data[lo*c:hi*c], g.in.Data[lo*c:hi*c])
}

// Backward applies the analytic derivative of the tanh approximation,
// with tanh u taken from the exp Forward runs on (tanh u = 2/(1 +
// exp(-2u)) - 1), so it differentiates exactly the function Forward
// computes. It reads the input of a forward that ran with buffer reuse
// off: the serving mode keeps none, and may have written over it.
func (g *GELU) Backward(dy *mat.Matrix) *mat.Matrix {
	if g.x == nil {
		panic("nn: GELU.Backward without its input: no Forward ran, or it ran with buffer reuse on (the serving mode, which is forward-only and may write over the input); turn it off with the model's SetBufferReuse(false) before training")
	}
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

	// the backward cache, kept by a forward with buffer reuse off
	xhat   *mat.Matrix
	invStd []float64

	in, res, y *mat.Matrix // the operands and output of the forward in flight
	out        **mat.Matrix
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

// SetOutputSlot turns buffer reuse on with the forward writing through
// slot (see Linear.SetOutputSlot). Given the slot of its x operand, the
// norm writes over it in place.
func (ln *LayerNorm) SetOutputSlot(slot **mat.Matrix) {
	ln.out = slot
	ln.xhat, ln.invStd = nil, nil
}

// ForwardResidual normalizes each row of x + res (of x when res is nil)
// without forming the sum as a matrix: the residual add, both reductions
// and the scale and shift are one row kernel (mat.NormRow). x and res
// are left as they were, unless the output slot is x's own.
func (ln *LayerNorm) ForwardResidual(x, res *mat.Matrix) *mat.Matrix {
	if res != nil && (res.Rows != x.Rows || res.Cols != x.Cols) {
		panic(fmt.Sprintf("nn: LayerNorm residual %dx%d on input %dx%d", res.Rows, res.Cols, x.Rows, x.Cols))
	}
	ln.xhat, ln.invStd = nil, nil
	if ln.out == nil {
		ln.xhat = mat.New(x.Rows, x.Cols)
		ln.invStd = make([]float64, x.Rows)
	}
	y := output(ln.out, x.Rows, x.Cols)
	ln.in, ln.res, ln.y = x, res, y
	mat.Fork(x.Rows, len(x.Data)*mat.WorkNorm, (*normRows)(ln))
	ln.in, ln.res, ln.y = nil, nil, nil
	return y
}

// normRows is a LayerNorm forward as a mat.Fork body: rows [lo, hi) of
// ln.in (+ ln.res) into ln.y, and into ln.xhat and ln.invStd when the
// forward keeps them. A serving-mode span normalises through one borrowed
// row instead.
type normRows LayerNorm

// normScratches lends each span of a serving-mode norm its normalised row.
var normScratches mat.FreeList[[]float64]

func newNormScratch() []float64 { return nil }

func (ln *normRows) Range(lo, hi int) {
	var r, xh []float64
	if ln.xhat == nil {
		xh = mat.GrowFloats(normScratches.Get(newNormScratch), ln.in.Cols)
	}
	for i := lo; i < hi; i++ {
		if ln.res != nil {
			r = ln.res.Row(i)
		}
		if ln.xhat != nil {
			xh = ln.xhat.Row(i)
		}
		inv := mat.NormRow(ln.y.Row(i), xh, ln.in.Row(i), r, ln.Gamma.Value.Data, ln.Beta.Value.Data, ln.Eps)
		if ln.invStd != nil {
			ln.invStd[i] = inv
		}
	}
	if ln.xhat == nil {
		normScratches.Put(xh)
	}
}

// Backward computes gradients for gamma, beta and the input from the
// normalised rows a forward with buffer reuse off kept.
func (ln *LayerNorm) Backward(dy *mat.Matrix) *mat.Matrix {
	if ln.xhat == nil {
		panic("nn: LayerNorm.Backward without the normalised rows: no Forward ran, or it ran with buffer reuse on (the serving mode, which is forward-only and keeps none); turn it off with the model's SetBufferReuse(false) before training")
	}
	dx := mat.New(dy.Rows, dy.Cols)
	n := float64(ln.Dim)
	dgamma, dbeta := ln.Gamma.Gradient().Data, ln.Beta.Gradient().Data
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := ln.xhat.Row(i)
		// parameter grads
		for j, v := range dyr {
			dgamma[j] += v * xh[j]
			dbeta[j] += v
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
