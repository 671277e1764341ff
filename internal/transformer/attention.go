// Package transformer implements the models the RT3 paper prunes: a
// small encoder-decoder Transformer language model (the paper uses two
// encoder and one decoder layers on WikiText-2) and a DistilBERT-like
// six-encoder classifier/regressor for GLUE-style tasks.
//
// All layers carry hand-written backward passes over the nn substrate.
// The forward stack is batch-first: every layer operates on a packed
// (ΣLᵢ x d_model) matrix holding any number of concatenated sequences
// plus a per-sequence offsets table, with attention masked
// block-diagonally (optionally causal) so no sequence attends across
// batch boundaries. Each nn.Linear therefore issues one fused kernel
// product over all ΣL rows per layer — the serving path's throughput
// lever — while the single-sequence Forward methods remain as
// one-sequence shims over the packed path, bit-identical to running
// each sequence alone. Mini-batch training still accumulates gradients
// across calls; the batched backward decomposes per sequence over the
// same offsets.
package transformer

import (
	"fmt"
	"math"
	"math/rand"

	"rt3/internal/mat"
	"rt3/internal/nn"
)

// MultiHeadAttention implements scaled dot-product attention with H
// heads over packed multi-sequence batches. It supports self-attention
// (q == kv) and cross-attention (decoder queries over encoder memory)
// plus an optional per-sequence causal mask.
type MultiHeadAttention struct {
	Dim, Heads int
	HeadDim    int

	WQ, WK, WV, WO *nn.Linear

	// forward caches for the backward pass
	q, k, v     *mat.Matrix
	attn        []*mat.Matrix // softmax scores, one Lqᵢ x Lkᵢ block per (head, sequence); nil after a reusing forward
	qOff, kvOff []int
	causal      bool

	// the packed context rows of the forward in flight, kept across
	// calls when reuse is on
	reuse  bool
	concat *mat.Matrix

	// the cached attention of the DecodeStep or DecodeChunk in flight (see
	// decode.go): a fork body must live on the heap, so it lives here
	cached cachedAttend
}

// NewMultiHeadAttention creates an H-head attention block over dim
// features; dim must be divisible by heads.
func NewMultiHeadAttention(name string, dim, heads int, rng *rand.Rand) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("transformer: dim %d not divisible by heads %d", dim, heads))
	}
	return &MultiHeadAttention{
		Dim: dim, Heads: heads, HeadDim: dim / heads,
		WQ: nn.NewLinear(name+".wq", dim, dim, rng),
		WK: nn.NewLinear(name+".wk", dim, dim, rng),
		WV: nn.NewLinear(name+".wv", dim, dim, rng),
		WO: nn.NewLinear(name+".wo", dim, dim, rng),
	}
}

// Params implements nn.Module.
func (a *MultiHeadAttention) Params() []*nn.Parameter {
	return nn.CollectParams(a.WQ, a.WK, a.WV, a.WO)
}

// PrunableLinears returns the four projection layers, the attention
// weights eligible for BP/PP (biases and LayerNorms stay dense).
func (a *MultiHeadAttention) PrunableLinears() []*nn.Linear {
	return []*nn.Linear{a.WQ, a.WK, a.WV, a.WO}
}

// SetBufferReuse toggles preallocated projection and head-scratch
// buffers on the whole block (see nn.Linear.SetBufferReuse for the
// aliasing contract).
func (a *MultiHeadAttention) SetBufferReuse(on bool) {
	a.WQ.SetBufferReuse(on)
	a.WK.SetBufferReuse(on)
	a.WV.SetBufferReuse(on)
	a.WO.SetBufferReuse(on)
	a.reuse = on
	if !on {
		a.concat = nil
	}
}

// Forward computes attention of queries (seqQ x dim) over keys/values
// (seqK x dim) as a one-sequence packed batch. Pass q == kv for
// self-attention. When causal is true, position i may only attend to
// positions <= i (requires seqQ == seqK).
func (a *MultiHeadAttention) Forward(q, kv *mat.Matrix, causal bool) *mat.Matrix {
	return a.ForwardBatch(q, kv, []int{0, q.Rows}, []int{0, kv.Rows}, causal)
}

// ForwardBatch computes attention over a packed multi-sequence batch:
// q is (ΣLq x dim) and kv is (ΣLk x dim), with qOff and kvOff the
// per-sequence row offsets (len n+1, starting at 0 and ending at the
// respective row counts; sequence s spans rows [off[s], off[s+1])).
// Attention is block-diagonal — sequence s's queries attend only to
// sequence s's keys — and optionally causal within each block (query
// row i attends a window of its first i+1 keys), so the result is
// bit-identical to running every sequence through Forward alone while
// the four projections each execute as one fused kernel product over
// all packed rows. A sequence with query rows must have key rows.
//
// Every (head, query row) runs mat.Attend, the body the cached decode
// paths run too: each head of K is transposed once into feature-major
// scratch, V and the context rows are read and written in place through
// their row stride. Heads are independent — each writes its own columns
// of the context rows and its own probability blocks — so a large batch
// splits by head across the mat.Fork helpers.
//
// The probability blocks are the backward cache, so only a training-mode
// forward keeps them. With buffer reuse on — the serving path — each span
// of heads attends through one borrowed score row, as the cached decode
// paths do, no block is allocated or cleared, and Backward panics.
func (a *MultiHeadAttention) ForwardBatch(q, kv *mat.Matrix, qOff, kvOff []int, causal bool) *mat.Matrix {
	nSeq := checkOffsets("q", qOff, q.Rows)
	if n := checkOffsets("kv", kvOff, kv.Rows); n != nSeq {
		panic(fmt.Sprintf("transformer: %d query sequences but %d key/value sequences", nSeq, n))
	}
	pairs := 0 // (query row, key row) pairs one head attends
	for s := 0; s < nSeq; s++ {
		lq, lk := qOff[s+1]-qOff[s], kvOff[s+1]-kvOff[s]
		if causal && lq != lk {
			panic("transformer: causal attention requires seqQ == seqK")
		}
		if lq > 0 && lk == 0 {
			panic(fmt.Sprintf("transformer: sequence %d has %d query rows and no key rows to attend", s, lq))
		}
		if causal {
			pairs += lq * (lq + 1) / 2
		} else {
			pairs += lq * lk
		}
	}
	a.causal = causal
	a.qOff, a.kvOff = qOff, kvOff
	a.q = a.WQ.Forward(q)
	a.k = a.WK.Forward(kv)
	a.v = a.WV.Forward(kv)
	concat := mat.EnsureShape(&a.concat, a.reuse, q.Rows, a.Dim)
	a.concat = concat

	a.attn = nil
	if !a.reuse {
		a.attn = make([]*mat.Matrix, a.Heads*nSeq)
	}
	// per pair: a score and a value product over the head's features, and
	// one exp
	mat.Fork(a.Heads, a.Heads*pairs*(2*a.HeadDim+mat.WorkExp), (*attendHeads)(a))
	if !a.reuse {
		a.concat = nil
	}
	return a.WO.Forward(concat)
}

// keyScratches lends each span of heads the feature-major key block
// mat.Attend reads.
var keyScratches mat.FreeList[[]float64]

func newKeyScratch() []float64 { return nil }

// attendHeads is the attention of a ForwardBatch as a mat.Fork body:
// heads [h0, h1) of the projected a.q, a.k, a.v into a.concat, and into
// a.attn when the forward keeps probability blocks.
type attendHeads MultiHeadAttention

func (a *attendHeads) Range(h0, h1 int) {
	nSeq := len(a.qOff) - 1
	// a window starting at any key row may be read one block past its end
	hd, ld := a.HeadDim, a.k.Rows+mat.AttendBlock
	kT := mat.GrowFloats(keyScratches.Get(newKeyScratch), hd*ld)
	var scores []float64 // the one score row of a forward that keeps no blocks
	if a.attn == nil {
		scores = mat.GrowFloats(scoreScratches.Get(newKeyScratch), a.k.Rows)
	}
	scale := 1 / math.Sqrt(float64(hd))
	for h := h0; h < h1; h++ {
		ho := h * hd
		mat.PackKeys(kT, ld, a.k.Data[ho:], a.Dim, a.k.Rows, hd)
		for s := 0; s < nSeq; s++ {
			q0, lq := a.qOff[s], a.qOff[s+1]-a.qOff[s]
			k0, lk := a.kvOff[s], a.kvOff[s+1]-a.kvOff[s]
			if lq == 0 {
				continue
			}
			var probs *mat.Matrix // zeroed: a causal row's future stays 0
			if a.attn != nil {
				probs = mat.New(lq, lk)
				a.attn[h*nSeq+s] = probs
			}
			vals := a.v.Data[k0*a.Dim+ho:]
			for i := 0; i < lq; i++ {
				p, w := scores, lk
				if probs != nil {
					p = probs.Row(i)
				}
				if a.causal {
					w = i + 1
				}
				r := (q0+i)*a.Dim + ho
				mat.Attend(a.concat.Data[r:r+hd], a.q.Data[r:r+hd], kT[k0:], ld, vals, a.Dim, w, scale, p)
			}
		}
	}
	keyScratches.Put(kT)
	if a.attn == nil {
		scoreScratches.Put(scores)
	}
}

// Backward propagates the upstream gradient, accumulating parameter
// gradients, and returns (dQin, dKVin) with the packed shapes of the
// last forward call. For self-attention the caller must sum both into
// the single input gradient. The computation decomposes per sequence
// over the cached offsets, so it supports batched forwards too. It reads
// the probability blocks of a forward that ran with buffer reuse off.
func (a *MultiHeadAttention) Backward(dy *mat.Matrix) (dq, dkv *mat.Matrix) {
	if a.attn == nil {
		panic("transformer: MultiHeadAttention.Backward without probability blocks: no forward ran, or it ran with buffer reuse on (the serving mode, which keeps none); call SetBufferReuse(false) before training")
	}
	dconcat := a.WO.Backward(dy)
	nSeq := len(a.qOff) - 1

	dQ := mat.New(a.q.Rows, a.Dim)
	dK := mat.New(a.k.Rows, a.Dim)
	dV := mat.New(a.v.Rows, a.Dim)
	scale := 1 / math.Sqrt(float64(a.HeadDim))

	for h := 0; h < a.Heads; h++ {
		doh := a.headView(dconcat, h)
		vh := a.headView(a.v, h)
		qh := a.headView(a.q, h)
		kh := a.headView(a.k, h)
		for s := 0; s < nSeq; s++ {
			q0, q1 := a.qOff[s], a.qOff[s+1]
			k0, k1 := a.kvOff[s], a.kvOff[s+1]
			lq, lk := q1-q0, k1-k0
			if lq == 0 {
				continue
			}
			attn := a.attn[h*nSeq+s]
			dohs := doh.RowSpan(q0, q1)
			vhs := vh.RowSpan(k0, k1)
			qhs := qh.RowSpan(q0, q1)
			khs := kh.RowSpan(k0, k1)

			// dAttn = doh @ vh^T ; dVh = attn^T @ doh
			dattn := mat.New(lq, lk)
			mat.MatMulT(dattn, dohs, vhs)
			dvh := mat.New(lk, a.HeadDim)
			mat.MatMulTA(dvh, attn, dohs)

			// softmax backward: ds = attn * (dattn - rowdot(dattn, attn))
			dscores := mat.New(lq, lk)
			for i := 0; i < lq; i++ {
				ar := attn.Row(i)
				dr := dattn.Row(i)
				dot := mat.Dot(dr, ar)
				out := dscores.Row(i)
				for j := range out {
					out[j] = ar[j] * (dr[j] - dot) * scale
				}
			}

			// dQh = dscores @ kh ; dKh = dscores^T @ qh
			dqh := mat.New(lq, a.HeadDim)
			mat.MatMul(dqh, dscores, khs)
			dkh := mat.New(lk, a.HeadDim)
			mat.MatMulTA(dkh, dscores, qhs)

			a.addHeadAt(dQ, dqh, h, q0)
			a.addHeadAt(dK, dkh, h, k0)
			a.addHeadAt(dV, dvh, h, k0)
		}
	}

	dqin := a.WQ.Backward(dQ)
	dkin := a.WK.Backward(dK)
	dvin := a.WV.Backward(dV)
	dkin.Add(dvin)
	return dqin, dkin
}

// headView copies the h-th head slice (columns [h*hd, (h+1)*hd)) of x
// into a fresh matrix.
func (a *MultiHeadAttention) headView(x *mat.Matrix, h int) *mat.Matrix {
	out := mat.New(x.Rows, a.HeadDim)
	a.copyHead(out, x, h)
	return out
}

// copyHead copies the h-th head slice of src into the preallocated dst.
func (a *MultiHeadAttention) copyHead(dst, src *mat.Matrix, h int) {
	hd := a.HeadDim
	for i := 0; i < src.Rows; i++ {
		copy(dst.Row(i), src.Row(i)[h*hd:(h+1)*hd])
	}
}

// addHeadAt accumulates src into dst's head-h columns starting at dst
// row r0 (the sequence's offset within the packed batch).
func (a *MultiHeadAttention) addHeadAt(dst, src *mat.Matrix, h, r0 int) {
	hd := a.HeadDim
	for i := 0; i < src.Rows; i++ {
		drow := dst.Row(r0 + i)[h*hd : (h+1)*hd]
		for j, v := range src.Row(i) {
			drow[j] += v
		}
	}
}
