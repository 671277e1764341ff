package transformer

import (
	"math/rand"

	"rt3/internal/mat"
	"rt3/internal/nn"
)

// FeedForward is the position-wise two-layer MLP of a Transformer block.
type FeedForward struct {
	L1, L2 *nn.Linear
	Act    *nn.GELU
}

// NewFeedForward creates dim -> hidden -> dim with GELU in between.
func NewFeedForward(name string, dim, hidden int, rng *rand.Rand) *FeedForward {
	return &FeedForward{
		L1:  nn.NewLinear(name+".ff1", dim, hidden, rng),
		L2:  nn.NewLinear(name+".ff2", hidden, dim, rng),
		Act: &nn.GELU{},
	}
}

// Params implements nn.Module.
func (f *FeedForward) Params() []*nn.Parameter { return nn.CollectParams(f.L1, f.L2) }

// PrunableLinears returns the two MLP projections.
func (f *FeedForward) PrunableLinears() []*nn.Linear { return []*nn.Linear{f.L1, f.L2} }

// SetBufferReuse toggles preallocated activation buffers on the MLP.
func (f *FeedForward) SetBufferReuse(on bool) {
	f.L1.SetBufferReuse(on)
	f.L2.SetBufferReuse(on)
	f.Act.SetBufferReuse(on)
}

// Forward applies the MLP to every row of x — position-wise, so a
// packed multi-sequence batch needs no offsets here and each projection
// is one fused kernel product over all ΣL rows.
func (f *FeedForward) Forward(x *mat.Matrix) *mat.Matrix {
	return f.L2.Forward(f.Act.Forward(f.L1.Forward(x)))
}

// Backward propagates the upstream gradient.
func (f *FeedForward) Backward(dy *mat.Matrix) *mat.Matrix {
	return f.L1.Backward(f.Act.Backward(f.L2.Backward(dy)))
}

// EncoderLayer is a post-LN Transformer encoder block:
// x = LN(x + SelfAttn(x)); x = LN(x + FFN(x)).
type EncoderLayer struct {
	Attn *MultiHeadAttention
	FF   *FeedForward
	LN1  *nn.LayerNorm
	LN2  *nn.LayerNorm
}

// NewEncoderLayer constructs one encoder block.
func NewEncoderLayer(name string, dim, heads, ffHidden int, rng *rand.Rand) *EncoderLayer {
	return &EncoderLayer{
		Attn: NewMultiHeadAttention(name+".attn", dim, heads, rng),
		FF:   NewFeedForward(name, dim, ffHidden, rng),
		LN1:  nn.NewLayerNorm(name+".ln1", dim),
		LN2:  nn.NewLayerNorm(name+".ln2", dim),
	}
}

// Params implements nn.Module.
func (e *EncoderLayer) Params() []*nn.Parameter {
	return nn.CollectParams(e.Attn, e.FF, e.LN1, e.LN2)
}

// PrunableLinears returns the block's attention and MLP projections.
func (e *EncoderLayer) PrunableLinears() []*nn.Linear {
	return append(e.Attn.PrunableLinears(), e.FF.PrunableLinears()...)
}

// SetBufferReuse toggles preallocated activation buffers on every
// sublayer of the block.
func (e *EncoderLayer) SetBufferReuse(on bool) {
	e.Attn.SetBufferReuse(on)
	e.FF.SetBufferReuse(on)
	e.LN1.SetBufferReuse(on)
	e.LN2.SetBufferReuse(on)
}

// Forward runs the block on a single seq x dim sequence.
func (e *EncoderLayer) Forward(x *mat.Matrix) *mat.Matrix {
	return e.ForwardBatch(x, []int{0, x.Rows})
}

// ForwardBatch runs the block on a packed multi-sequence batch (ΣL x
// dim plus offsets): self-attention is block-diagonal per sequence
// while the LayerNorms, residuals and MLP are position-wise over all
// packed rows.
func (e *EncoderLayer) ForwardBatch(x *mat.Matrix, off []int) *mat.Matrix {
	a := e.Attn.ForwardBatch(x, x, off, off, false)
	h := e.LN1.ForwardResidual(a, x)
	f := e.FF.Forward(h)
	return e.LN2.ForwardResidual(f, h)
}

// Backward propagates through the block and returns dL/dx.
func (e *EncoderLayer) Backward(dy *mat.Matrix) *mat.Matrix {
	d := e.LN2.Backward(dy)
	dh := e.FF.Backward(d)
	dh.Add(d) // residual
	d2 := e.LN1.Backward(dh)
	dq, dkv := e.Attn.Backward(d2)
	dq.Add(dkv)
	dq.Add(d2) // residual
	return dq
}

// DecoderLayer is a post-LN Transformer decoder block with causal
// self-attention, cross-attention over encoder memory, and an FFN.
type DecoderLayer struct {
	SelfAttn  *MultiHeadAttention
	CrossAttn *MultiHeadAttention
	FF        *FeedForward
	LN1       *nn.LayerNorm
	LN2       *nn.LayerNorm
	LN3       *nn.LayerNorm

	// incremental-decoding scratch (see decode.go): reusable per-step
	// cache-pointer slices, one entry per active sequence.
	decSelf, decCross []*KVCache
}

// NewDecoderLayer constructs one decoder block.
func NewDecoderLayer(name string, dim, heads, ffHidden int, rng *rand.Rand) *DecoderLayer {
	return &DecoderLayer{
		SelfAttn:  NewMultiHeadAttention(name+".self", dim, heads, rng),
		CrossAttn: NewMultiHeadAttention(name+".cross", dim, heads, rng),
		FF:        NewFeedForward(name, dim, ffHidden, rng),
		LN1:       nn.NewLayerNorm(name+".ln1", dim),
		LN2:       nn.NewLayerNorm(name+".ln2", dim),
		LN3:       nn.NewLayerNorm(name+".ln3", dim),
	}
}

// Params implements nn.Module.
func (d *DecoderLayer) Params() []*nn.Parameter {
	return nn.CollectParams(d.SelfAttn, d.CrossAttn, d.FF, d.LN1, d.LN2, d.LN3)
}

// PrunableLinears returns the block's attention and MLP projections.
func (d *DecoderLayer) PrunableLinears() []*nn.Linear {
	out := append(d.SelfAttn.PrunableLinears(), d.CrossAttn.PrunableLinears()...)
	return append(out, d.FF.PrunableLinears()...)
}

// SetBufferReuse toggles preallocated activation buffers on every
// sublayer of the block.
func (d *DecoderLayer) SetBufferReuse(on bool) {
	d.SelfAttn.SetBufferReuse(on)
	d.CrossAttn.SetBufferReuse(on)
	d.FF.SetBufferReuse(on)
	d.LN1.SetBufferReuse(on)
	d.LN2.SetBufferReuse(on)
	d.LN3.SetBufferReuse(on)
}

// Forward runs the block on a single sequence x (seq x dim) attending
// to memory.
func (d *DecoderLayer) Forward(x, memory *mat.Matrix) *mat.Matrix {
	return d.ForwardBatch(x, memory, []int{0, x.Rows}, []int{0, memory.Rows})
}

// ForwardBatch runs the block on a packed multi-sequence batch: causal
// self-attention and cross-attention over the packed encoder memory are
// both block-diagonal per sequence (xOff and memOff pair sequence s's
// decoder rows with its memory rows).
func (d *DecoderLayer) ForwardBatch(x, memory *mat.Matrix, xOff, memOff []int) *mat.Matrix {
	a := d.SelfAttn.ForwardBatch(x, x, xOff, xOff, true)
	h1 := d.LN1.ForwardResidual(a, x)

	c := d.CrossAttn.ForwardBatch(h1, memory, xOff, memOff, false)
	h2 := d.LN2.ForwardResidual(c, h1)

	f := d.FF.Forward(h2)
	return d.LN3.ForwardResidual(f, h2)
}

// Backward propagates, returning (dL/dx, dL/dmemory).
func (d *DecoderLayer) Backward(dy *mat.Matrix) (dx, dmem *mat.Matrix) {
	g := d.LN3.Backward(dy)
	dh2 := d.FF.Backward(g)
	dh2.Add(g)

	g2 := d.LN2.Backward(dh2)
	dq, dm := d.CrossAttn.Backward(g2)
	dq.Add(g2)

	g3 := d.LN1.Backward(dq)
	dsq, dskv := d.SelfAttn.Backward(g3)
	dsq.Add(dskv)
	dsq.Add(g3)
	return dsq, dm
}
