package transformer

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"rt3/internal/mat"
	"rt3/internal/nn"
)

// Config describes a model instance. The paper's Transformer uses two
// encoder and one decoder layers on WikiText-2; its DistilBERT has six
// encoder layers. This reproduction keeps those layer counts, which the
// pattern sets and levels act on, and shrinks widths and vocabularies so
// that every table and figure trains and evaluates on a laptop CPU.
type Config struct {
	Vocab     int // vocabulary size (LM) or input token space (classifier)
	Dim       int // model width d_model
	Heads     int // attention heads
	FFHidden  int // position-wise MLP hidden width
	EncLayers int // number of encoder layers
	DecLayers int // number of decoder layers (LM only)
	SeqLen    int // maximum sequence length
	Classes   int // output classes (classifier only)
}

// posCache memoizes sinusoidal position tables per (seqLen, dim): the
// table is a pure function of its shape, so every model construction
// (and every serving replica cloned from a checkpoint) shares one
// read-only instance instead of recomputing the full sin/cos sweep.
var posCache sync.Map // posKey -> *mat.Matrix

type posKey struct{ seqLen, dim int }

// PositionalEncoding returns the fixed sinusoidal position table
// (seqLen x dim) from "Attention Is All You Need". Tables are cached
// per shape and shared across callers: the returned matrix must be
// treated as read-only.
func PositionalEncoding(seqLen, dim int) *mat.Matrix {
	key := posKey{seqLen, dim}
	if v, ok := posCache.Load(key); ok {
		return v.(*mat.Matrix)
	}
	pe := mat.New(seqLen, dim)
	for pos := 0; pos < seqLen; pos++ {
		for i := 0; i < dim; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(dim))
			if i%2 == 0 {
				pe.Set(pos, i, math.Sin(angle))
			} else {
				pe.Set(pos, i, math.Cos(angle))
			}
		}
	}
	v, _ := posCache.LoadOrStore(key, pe)
	return v.(*mat.Matrix)
}

// LMModel is the encoder-decoder next-word-prediction Transformer used
// for the WikiText-2-style experiments. The same token sequence feeds
// the encoder and (causally) the decoder; logits at position t predict
// token t+1.
type LMModel struct {
	Cfg     Config
	Embed   *nn.Embedding
	Pos     *mat.Matrix
	Enc     []*EncoderLayer
	Dec     []*DecoderLayer
	Proj    *nn.Linear
	nparams []*nn.Parameter

	// packed-batch state: the offsets of the last forward (consumed by
	// Backward) and reusable batch buffers (active when reuse is on):
	// last holds each prompt's last row under a prefill's top layer.
	off   []int
	flat  []int
	last  *mat.Matrix
	reuse bool

	// incremental-decoding scratch (see decode.go): the packing of
	// DecodeStep and DecodeChunk, the offsets of one-row sequences, and
	// the reference path's packing.
	chunkOff  []int
	chunkFlat []int
	ident     []int
	refOff    []int
	refFlat   []int
}

// NewLMModel builds the language model described by cfg; a nil rng
// leaves its weights zero (Clone copies them in).
func NewLMModel(cfg Config, rng *rand.Rand) *LMModel {
	m := &LMModel{
		Cfg:   cfg,
		Embed: nn.NewEmbedding("embed", cfg.Vocab, cfg.Dim, rng),
		Pos:   PositionalEncoding(cfg.SeqLen, cfg.Dim),
		Proj:  nn.NewLinear("proj", cfg.Dim, cfg.Vocab, rng),
	}
	for i := 0; i < cfg.EncLayers; i++ {
		m.Enc = append(m.Enc, NewEncoderLayer(layerName("enc", i), cfg.Dim, cfg.Heads, cfg.FFHidden, rng))
	}
	for i := 0; i < cfg.DecLayers; i++ {
		m.Dec = append(m.Dec, NewDecoderLayer(layerName("dec", i), cfg.Dim, cfg.Heads, cfg.FFHidden, rng))
	}
	m.nparams = m.collect()
	return m
}

func layerName(prefix string, i int) string {
	return prefix + "." + string(rune('0'+i))
}

func (m *LMModel) collect() []*nn.Parameter {
	ps := nn.CollectParams(m.Embed)
	for _, e := range m.Enc {
		ps = append(ps, e.Params()...)
	}
	for _, d := range m.Dec {
		ps = append(ps, d.Params()...)
	}
	return append(ps, m.Proj.Params()...)
}

// Params implements nn.Module.
func (m *LMModel) Params() []*nn.Parameter { return m.nparams }

// PrunableLinears returns every attention and MLP projection layer, in
// the same order their W parameters appear in PrunableParams selections.
func (m *LMModel) PrunableLinears() []*nn.Linear {
	var out []*nn.Linear
	for _, e := range m.Enc {
		out = append(out, e.PrunableLinears()...)
	}
	for _, d := range m.Dec {
		out = append(out, d.PrunableLinears()...)
	}
	return out
}

// UnprunedLinears returns the serving-path linears no level prunes: the
// output projection.
func (m *LMModel) UnprunedLinears() []*nn.Linear { return []*nn.Linear{m.Proj} }

// VocabSize returns the size of the embedding table: every entry point
// panics on a token id outside [0, VocabSize()).
func (m *LMModel) VocabSize() int { return m.Embed.Vocab }

// SetBufferReuse toggles preallocated activation buffers through the
// whole forward stack. With reuse on — the serving mode — every layer of
// both stacks writes its outputs through one shared set of slots, one
// per role (query, key and value projections, context rows, attention
// output, each norm, the MLP's output and its ffn-wide hidden rows), so
// the model holds one layer's worth of activations however deep it is.
// The encoder's output (the memory the decoder's cross-attention reads),
// the embedding, a prefill's last rows and the logits keep buffers of
// their own. So a layer's output is overwritten by the next pass through
// any layer of either stack, the encoder's output by the next encoder
// pass, and the logits by the next forward: the hot serving path runs a
// whole packed batch without per-request activation allocations, but a
// caller retaining model outputs across forward passes (e.g. a serving
// engine handing responses to clients) must copy them first. The serving
// mode is forward-only: no module keeps a backward cache, and Backward
// panics after a reusing forward.
func (m *LMModel) SetBufferReuse(on bool) {
	s := newSlots(on)
	for _, e := range m.Enc {
		e.useSlots(s)
	}
	if n := len(m.Enc); n > 0 {
		m.Enc[n-1].LN2.SetOutputSlot(s.at(slotMemory))
	}
	for _, d := range m.Dec {
		d.useSlots(s)
	}
	m.Embed.SetBufferReuse(on)
	m.Proj.SetBufferReuse(on)
	m.reuse = on
	if !on {
		m.last = nil
	}
}

// Clone returns an independent model with identical weights — the way a
// serving worker pool replicates one checkpoint so concurrent forward
// passes do not share layer caches. It draws no weights of its own: they
// are copied in.
func (m *LMModel) Clone() *LMModel {
	c := NewLMModel(m.Cfg, nil)
	copyParams(c.nparams, m.nparams)
	return c
}

// Forward returns next-token logits (seq x vocab) for the id sequence —
// a one-sequence shim over ForwardBatch.
func (m *LMModel) Forward(ids []int) *mat.Matrix {
	return m.ForwardBatch([][]int{ids})[0]
}

// ForwardBatch runs one fused forward pass over a dynamic batch of
// sequences and returns per-sequence next-token logits (Lᵢ x vocab).
// All sequences are packed into one (ΣL x d_model) matrix: every Linear
// executes as a single kernel product over all packed rows per layer,
// and attention (causal self-attention and cross-attention in the
// decoder) is block-diagonal per sequence, so each returned matrix is
// bit-identical to Forward on that sequence alone.
//
// The returned matrices are views into the packed logits: valid until
// the next forward pass when buffer reuse is on (the serving engine
// copies at its boundary), and independent of each other otherwise.
func (m *LMModel) ForwardBatch(seqs [][]int) []*mat.Matrix {
	d, memory := m.encode(seqs)
	if len(m.Dec) == 0 {
		d = memory
	}
	for _, dec := range m.Dec {
		d = dec.ForwardBatch(d, memory, m.off, m.off)
	}
	return splitRows(m.Proj.Forward(d), m.off)
}

// encode packs seqs into m.flat and m.off, embeds them at positions from
// 0 and runs the encoder stack over them: x is the embedded input, which
// the decoder stack reads too (it is the embedding's own buffer, which no
// layer writes, so both stacks read the one buffer), and memory the
// encoder's output.
func (m *LMModel) encode(seqs [][]int) (x, memory *mat.Matrix) {
	m.flat, m.off = packIDs(seqs, m.flat, m.off)
	x = m.Embed.Forward(m.flat)
	addPositional(x, m.off, m.Pos, nil)
	memory = x
	for _, e := range m.Enc {
		memory = e.ForwardBatch(memory, m.off)
	}
	return x, memory
}

// Backward propagates dlogits through the whole model, accumulating
// parameter gradients. Forward must have been called first with the same
// sequence.
func (m *LMModel) Backward(dlogits *mat.Matrix) {
	d := m.Proj.Backward(dlogits)
	var dmemTotal *mat.Matrix
	if len(m.Dec) > 0 {
		for i := len(m.Dec) - 1; i >= 0; i-- {
			var dmem *mat.Matrix
			d, dmem = m.Dec[i].Backward(d)
			if dmemTotal == nil {
				dmemTotal = dmem
			} else {
				dmemTotal.Add(dmem)
			}
		}
	} else {
		dmemTotal = d
		d = mat.New(d.Rows, d.Cols)
	}
	// encoder path receives the memory gradient
	e := dmemTotal
	for i := len(m.Enc) - 1; i >= 0; i-- {
		e = m.Enc[i].Backward(e)
	}
	// embedding input was used by both encoder and decoder streams
	e.Add(d)
	m.Embed.Backward(e)
}

// Loss computes mean next-token cross-entropy for ids; targets[i] is the
// token that should follow ids[i].
func (m *LMModel) Loss(ids, targets []int) (float64, *mat.Matrix) {
	logits := m.Forward(ids)
	return nn.SoftmaxCrossEntropy(logits, targets)
}

// Accuracy returns next-word prediction accuracy over the sequence.
func (m *LMModel) Accuracy(ids, targets []int) float64 {
	logits := m.Forward(ids)
	return nn.AccuracyFromLogits(logits, targets)
}

// Classifier is the DistilBERT-like encoder stack with a mean-pooled
// classification head, used for the GLUE-style tasks. With Classes == 1
// it acts as a regressor (STS-B).
type Classifier struct {
	Cfg     Config
	Embed   *nn.Embedding
	Pos     *mat.Matrix
	Enc     []*EncoderLayer
	Head    *nn.Linear
	nparams []*nn.Parameter

	// packed-batch state: the offsets of the last forward (consumed by
	// Backward) and reusable batch buffers (active when reuse is on).
	off    []int
	flat   []int
	pooled *mat.Matrix
	reuse  bool
}

// NewClassifier builds the classifier/regressor described by cfg (a nil
// rng as for NewLMModel).
func NewClassifier(cfg Config, rng *rand.Rand) *Classifier {
	c := &Classifier{
		Cfg:   cfg,
		Embed: nn.NewEmbedding("embed", cfg.Vocab, cfg.Dim, rng),
		Pos:   PositionalEncoding(cfg.SeqLen, cfg.Dim),
		Head:  nn.NewLinear("head", cfg.Dim, cfg.Classes, rng),
	}
	for i := 0; i < cfg.EncLayers; i++ {
		c.Enc = append(c.Enc, NewEncoderLayer(layerName("enc", i), cfg.Dim, cfg.Heads, cfg.FFHidden, rng))
	}
	ps := nn.CollectParams(c.Embed)
	for _, e := range c.Enc {
		ps = append(ps, e.Params()...)
	}
	c.nparams = append(ps, c.Head.Params()...)
	return c
}

// Params implements nn.Module.
func (c *Classifier) Params() []*nn.Parameter { return c.nparams }

// PrunableLinears returns every attention and MLP projection layer.
func (c *Classifier) PrunableLinears() []*nn.Linear {
	var out []*nn.Linear
	for _, e := range c.Enc {
		out = append(out, e.PrunableLinears()...)
	}
	return out
}

// UnprunedLinears returns the serving-path linears no level prunes: the
// classification head.
func (c *Classifier) UnprunedLinears() []*nn.Linear { return []*nn.Linear{c.Head} }

// VocabSize returns the size of the embedding table: Forward panics on
// a token id outside [0, VocabSize()).
func (c *Classifier) VocabSize() int { return c.Embed.Vocab }

// SetBufferReuse toggles preallocated activation buffers through the
// whole forward stack. With reuse on — the serving mode — every encoder
// layer writes its outputs through one shared set of slots by role (see
// LMModel.SetBufferReuse), so a layer's output is overwritten by the
// next pass through any layer of the stack; the embedding, the pooled
// rows and the head's output keep buffers of their own, overwritten by
// the next forward. The serving mode is forward-only.
func (c *Classifier) SetBufferReuse(on bool) {
	s := newSlots(on)
	for _, e := range c.Enc {
		e.useSlots(s)
	}
	c.Embed.SetBufferReuse(on)
	c.Head.SetBufferReuse(on)
	c.reuse = on
	if !on {
		c.pooled = nil
	}
}

// Clone returns an independent classifier with identical weights (see
// LMModel.Clone).
func (c *Classifier) Clone() *Classifier {
	out := NewClassifier(c.Cfg, nil)
	copyParams(out.nparams, c.nparams)
	return out
}

// copyParams copies src values into dst pairwise; both models must come
// from the same deterministic construction order.
func copyParams(dst, src []*nn.Parameter) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("transformer: clone param count %d != %d", len(dst), len(src)))
	}
	for i, p := range dst {
		p.Value.CopyFrom(src[i].Value)
	}
}

// Forward returns the 1 x Classes output for the token sequence — a
// one-sequence shim over ForwardBatch.
func (c *Classifier) Forward(ids []int) *mat.Matrix {
	return c.ForwardBatch([][]int{ids})[0]
}

// ForwardBatch runs one fused forward pass over a dynamic batch of
// sequences and returns the per-sequence 1 x Classes outputs. The
// encoder stack executes once over the packed (ΣL x d_model) batch with
// block-diagonal self-attention, each sequence is mean-pooled over its
// own rows, and the classification head runs as one n x Classes
// product; every returned row is bit-identical to Forward on that
// sequence alone.
//
// The returned matrices are views into the packed head output: valid
// until the next forward pass when buffer reuse is on (the serving
// engine copies at its boundary), independent of each other otherwise.
func (c *Classifier) ForwardBatch(seqs [][]int) []*mat.Matrix {
	c.flat, c.off = packIDs(seqs, c.flat, c.off)
	x := c.Embed.Forward(c.flat)
	addPositional(x, c.off, c.Pos, nil)
	h := x
	for _, e := range c.Enc {
		h = e.ForwardBatch(h, c.off)
	}
	// mean pool each sequence over its own positions
	pooled := mat.EnsureShape(&c.pooled, c.reuse, len(seqs), c.Cfg.Dim)
	pooled.Zero()
	for s := 0; s+1 < len(c.off); s++ {
		row := pooled.Row(s)
		for i := c.off[s]; i < c.off[s+1]; i++ {
			for j, v := range h.Row(i) {
				row[j] += v
			}
		}
		inv := 1 / float64(c.off[s+1]-c.off[s])
		for j := range row {
			row[j] *= inv
		}
	}
	return rowViews(c.Head.Forward(pooled))
}

// Backward propagates the upstream gradient (one row per sequence of
// the last forward pass, so 1 x Classes after Forward).
func (c *Classifier) Backward(dout *mat.Matrix) {
	dpool := c.Head.Backward(dout)
	// un-pool: each position receives its sequence's dpool row / Lᵢ
	rows := c.off[len(c.off)-1]
	dh := mat.New(rows, c.Cfg.Dim)
	for s := 0; s+1 < len(c.off); s++ {
		inv := 1 / float64(c.off[s+1]-c.off[s])
		dp := dpool.Row(s)
		for i := c.off[s]; i < c.off[s+1]; i++ {
			row := dh.Row(i)
			for j := range row {
				row[j] = dp[j] * inv
			}
		}
	}
	d := dh
	for i := len(c.Enc) - 1; i >= 0; i-- {
		d = c.Enc[i].Backward(d)
	}
	c.Embed.Backward(d)
}
