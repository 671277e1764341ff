package transformer

import (
	"fmt"
	"math"

	"rt3/internal/mat"
)

// Incremental decoding: the O(L)-per-token serving path for
// autoregressive generation.
//
// The LM is an encoder-decoder stack whose encoder attends
// bidirectionally, so generation uses the standard seq2seq serving
// semantics: Prefill runs the full model over the prompt once (the
// encoder memory is frozen there), and every DecodeStep extends only
// the decoder by one token row per sequence, attending to cached
// projected keys/values instead of re-running the whole prefix. Under
// a frozen memory every layer's representation of position i is
// independent of later tokens (decoder self-attention is causal, and
// the cross-attended memory never changes), so a cached decode of N
// tokens is bit-identical to N full recomputations of the decoder
// stack over the growing sequence — the reference DecodeFull computes.

// KVCache holds one attention block's projected key/value rows for one
// sequence. A cache reserved up front (prompt + max new tokens) appends
// without ever touching the allocator.
//
// Keys are stored feature-major, the form mat.Attend reads:
// k[c*capRows+j] is feature c of key row j, with the row capacity
// capRows a multiple of mat.AttendBlock, so head h's keys are the block
// k[h*hd*capRows:] at stride capRows and every score block is 16
// contiguous floats per feature. Values stay row-major. The layout is
// private to this file — reserve, appendFloats (under appendRows),
// truncate and exportSpan are its only readers besides the attend call —
// and KVSpan, the interchange form everything outside exchanges, is
// row-major for both.
//
// Key columns at and past Rows() — stale rows left by TruncateTo or
// Reset, the padding up to the block edge — are read by the score kernel
// as spare lanes and never stored: lanes do not mix, so whatever they
// hold (NaN included) reaches no result.
type KVCache struct {
	k       []float64 // dim x capRows, feature-major
	v       []float64 // rows x dim, row-major, capacity capRows rows
	dim     int
	rows    int
	capRows int // multiple of mat.AttendBlock
}

// Rows returns the number of cached key/value rows.
func (c *KVCache) Rows() int { return c.rows }

// reserve grows the backing storage to hold at least rows rows (rounded
// up to whole score blocks), preserving cached contents: every feature's
// run of keys moves to its place under the new stride.
func (c *KVCache) reserve(rows int) {
	if c.capRows >= rows {
		return
	}
	grown := mat.AttendPadded(rows)
	k := make([]float64, c.dim*grown)
	for f := 0; f < c.dim; f++ {
		copy(k[f*grown:], c.k[f*c.capRows:][:c.rows])
	}
	v := make([]float64, len(c.v), grown*c.dim)
	copy(v, c.v)
	c.k, c.v, c.capRows = k, v, grown
}

// grow makes room for n more rows, doubling the backing storage when it
// runs out (an up-front reserve makes this allocation-free).
func (c *KVCache) grow(n int) {
	if need := c.rows + n; c.capRows < need {
		c.reserve(max(need, 2*c.rows))
	}
}

// appendRows copies rows [r0, r1) of the packed projections k and v
// into the cache.
func (c *KVCache) appendRows(k, v *mat.Matrix, r0, r1 int) {
	c.appendFloats(k.Data[r0*c.dim:r1*c.dim], v.Data[r0*c.dim:r1*c.dim])
}

// appendFloats copies packed row-major key/value data (len(k) == len(v)
// == rows*dim) onto the cache — the import half of the KVSpan API the
// prefix cache restores states through.
func (c *KVCache) appendFloats(k, v []float64) {
	if len(k) != len(v) || len(k)%c.dim != 0 {
		panic(fmt.Sprintf("transformer: appendFloats with %d/%d floats at dim %d", len(k), len(v), c.dim))
	}
	n := len(k) / c.dim
	c.grow(n)
	mat.PackKeys(c.k[c.rows:], c.capRows, k, c.dim, n, c.dim)
	c.v = append(c.v, v...)
	c.rows += n
}

// truncate drops cached rows beyond rows, keeping capacity.
func (c *KVCache) truncate(rows int) {
	c.rows = rows
	c.v = c.v[:rows*c.dim]
}

// DecodeState is one sequence's incremental-decoding cache: per decoder
// layer, the growing causal self-attention K/V rows (prompt + generated
// tokens) and the cross-attention K/V of the prompt's frozen encoder
// memory. States are cheap to recycle — Reset keeps the reserved
// storage, which is what the serving scheduler's free-list relies on
// for allocation-free steady-state decoding.
type DecodeState struct {
	self  []KVCache // per decoder layer, one row appended per token
	cross []KVCache // per decoder layer, frozen at prefill
	pos   int       // decoder rows cached (the next token's position)
}

// NewDecodeState allocates an empty decode cache shaped for this model.
// Incremental decoding needs a decoder stack: logits of an
// encoder-only configuration depend bidirectionally on the whole
// sequence and cannot be extended one token at a time.
func (m *LMModel) NewDecodeState() *DecodeState {
	if len(m.Dec) == 0 {
		panic("transformer: incremental decoding requires at least one decoder layer")
	}
	st := &DecodeState{
		self:  make([]KVCache, len(m.Dec)),
		cross: make([]KVCache, len(m.Dec)),
	}
	for i := range st.self {
		st.self[i].dim = m.Cfg.Dim
		st.cross[i].dim = m.Cfg.Dim
	}
	return st
}

// Pos returns the next token's position: the number of decoder rows
// (prompt plus generated tokens) currently cached.
func (st *DecodeState) Pos() int { return st.pos }

// Reserve grows every layer's self-attention cache to hold at least
// rows rows without losing cached contents. Reserving prompt length +
// max new tokens at admission makes the whole generation
// append-allocation-free. The frozen cross-attention caches are not
// touched: they hold exactly the prompt's memory rows, sized once at
// prefill (and kept across free-list recycling).
func (st *DecodeState) Reserve(rows int) {
	for i := range st.self {
		st.self[i].reserve(rows)
	}
}

// Reset empties the state for reuse (free-list recycling), keeping the
// reserved storage.
func (st *DecodeState) Reset() {
	for i := range st.self {
		st.self[i].truncate(0)
		st.cross[i].truncate(0)
	}
	st.pos = 0
}

// TruncateTo rewinds the state to position pos (0 <= pos <= Pos()),
// dropping the self-attention rows of later tokens while keeping the
// frozen cross-attention memory — the rollback primitive for replaying
// a committed stream from an earlier position.
func (st *DecodeState) TruncateTo(pos int) {
	if pos < 0 || pos > st.pos {
		panic(fmt.Sprintf("transformer: TruncateTo(%d) outside [0, %d]", pos, st.pos))
	}
	for i := range st.self {
		st.self[i].truncate(pos)
	}
	st.pos = pos
}

// KVSpan is one contiguous run of projected K/V rows copied out of a
// DecodeState, one k/v pair per decoder layer — the immutable storage
// unit of the prefix cache. Spans taken from a state rebuild a
// bit-identical state through LoadKV.
type KVSpan struct {
	K, V [][]float64 // per decoder layer, Rows x Dim packed row-major
	Rows int
	Dim  int
}

// ExportSelf copies self-attention K/V rows [r0, r1) of every decoder
// layer out of the state.
func (st *DecodeState) ExportSelf(r0, r1 int) *KVSpan {
	if r0 < 0 || r1 < r0 || r1 > st.pos {
		panic(fmt.Sprintf("transformer: ExportSelf [%d, %d) of %d rows", r0, r1, st.pos))
	}
	return exportSpan(st.self, r0, r1)
}

// ExportCross copies the frozen cross-attention memory projections of
// every decoder layer out of the state.
func (st *DecodeState) ExportCross() *KVSpan {
	return exportSpan(st.cross, 0, st.cross[0].Rows())
}

func exportSpan(caches []KVCache, r0, r1 int) *KVSpan {
	dim := caches[0].dim
	sp := &KVSpan{Rows: r1 - r0, Dim: dim}
	for li := range caches {
		c := &caches[li]
		k := make([]float64, (r1-r0)*dim)
		mat.UnpackKeys(k, dim, c.k[r0:], c.capRows, r1-r0, dim)
		sp.K = append(sp.K, k)
		sp.V = append(sp.V, append([]float64(nil), c.v[r0*dim:r1*dim]...))
	}
	return sp
}

// Equal reports exact (bitwise) equality of two spans.
func (sp *KVSpan) Equal(other *KVSpan) bool {
	if sp.Rows != other.Rows || sp.Dim != other.Dim || len(sp.K) != len(other.K) {
		return false
	}
	for li := range sp.K {
		for i, v := range sp.K[li] {
			if other.K[li][i] != v {
				return false
			}
		}
		for i, v := range sp.V[li] {
			if other.V[li][i] != v {
				return false
			}
		}
	}
	return true
}

// LoadKV replaces the state's contents with externally captured rows:
// cross becomes the frozen memory and the self spans are appended in
// order, leaving Pos at their total row count — after which the state is
// indistinguishable from one whose first Pos rows were just prefilled
// (the equivalence the prefix-cache tests pin). The state's reserved
// storage is reused.
func (st *DecodeState) LoadKV(cross *KVSpan, selfSpans ...*KVSpan) {
	if len(cross.K) != len(st.self) {
		panic(fmt.Sprintf("transformer: LoadKV cross has %d layers, state wants %d", len(cross.K), len(st.self)))
	}
	st.Reset()
	for li := range st.cross {
		st.cross[li].appendFloats(cross.K[li], cross.V[li])
	}
	total := 0
	for _, sp := range selfSpans {
		if len(sp.K) != len(st.self) {
			panic(fmt.Sprintf("transformer: LoadKV span has %d layers, state wants %d", len(sp.K), len(st.self)))
		}
		for li := range st.self {
			st.self[li].appendFloats(sp.K[li], sp.V[li])
		}
		total += sp.Rows
	}
	st.pos = total
}

// Prefill runs the prompt phase of incremental decoding: the prompts
// are embedded and run through the encoder stack once, every decoder
// layer's cross-attention K/V of that frozen memory go straight into the
// states, and the decoder pass DecodeChunk runs, here from position 0,
// fills every layer's self-attention K/V and computes the one thing
// decoding reads — the logits of each prompt's last row (see decode). States are
// reset first, so recycled states can be passed directly. Returns one
// 1 x vocab view per sequence (valid until the model's next forward), the
// first generated token's distribution: bit-identical to the last row
// ForwardBatch returns for that prompt. An empty prompt is rejected by
// index.
func (m *LMModel) Prefill(states []*DecodeState, prompts [][]int) []*mat.Matrix {
	if len(m.Dec) == 0 {
		panic("transformer: Prefill requires at least one decoder layer")
	}
	if len(states) != len(prompts) {
		panic(fmt.Sprintf("transformer: Prefill with %d states for %d prompts", len(states), len(prompts)))
	}
	for i, p := range prompts {
		if len(p) == 0 {
			panic(fmt.Sprintf("transformer: Prefill prompt %d is empty", i))
		}
	}
	for _, st := range states {
		st.Reset()
	}
	x, memory := m.encode(prompts)
	for li, dec := range m.Dec {
		dec.bind(states, li)
		dec.CrossAttn.appendKV(memory, dec.decCross, m.off)
	}
	return rowViews(m.decode(x, states, m.off, true))
}

// DecodeStep advances every sequence by one token: tokens[i] is the
// token just emitted for states[i] (initially the argmax of the
// prefill's last row). It is the decoder pass of DecodeChunk over
// one-token chunks: the batch's single new rows are packed into one
// B x d_model matrix, so every Linear in the decoder stack still issues
// one fused kernel product per layer, while attention reads the
// per-sequence caches. Returns the packed B x vocab logits (row i
// belongs to states[i]; a view valid until the model's next forward).
// Logits are bit-identical to the last row of DecodeFull over the same
// prefix.
func (m *LMModel) DecodeStep(states []*DecodeState, tokens []int) *mat.Matrix {
	if len(states) == 0 || len(states) != len(tokens) {
		panic(fmt.Sprintf("transformer: DecodeStep with %d states for %d tokens", len(states), len(tokens)))
	}
	for _, st := range states {
		if st.pos == 0 {
			panic("transformer: DecodeStep before Prefill")
		}
	}
	m.chunkFlat = append(m.chunkFlat[:0], tokens...)
	off := m.identity(len(states))
	x := m.Embed.Forward(m.chunkFlat)
	addPositional(x, off, m.Pos, states)
	return m.decode(x, states, off, false)
}

// DecodeChunk advances every sequence by a run of tokens in one fused
// pass: chunks[i] (non-empty, possibly ragged across sequences) is fed
// to states[i] exactly as len(chunks[i]) consecutive DecodeStep calls
// would feed it, but the Σk new rows are packed into one matrix so every
// Linear in the decoder stack issues a single kernel product for the
// whole chunk batch. Row j of sequence i attends its own cache rows
// [0, Pos+j] — the same causal window the sequential steps see — through
// the one attention body every path runs (mat.Attend), so the returned
// per-sequence logits (views, ForwardBatch aliasing contract) are
// bit-identical to the stacked DecodeStep logits over the same tokens.
// This is the prefix-cache suffix replayer; unlike DecodeStep it is also
// legal at Pos 0 on a state holding a frozen cross-attention memory,
// where it reproduces the prefill's decoder computation row-for-row.
func (m *LMModel) DecodeChunk(states []*DecodeState, chunks [][]int) []*mat.Matrix {
	if len(states) == 0 || len(states) != len(chunks) {
		panic(fmt.Sprintf("transformer: DecodeChunk with %d states for %d chunks", len(states), len(chunks)))
	}
	for _, st := range states {
		if st.cross[0].Rows() == 0 {
			panic("transformer: DecodeChunk before Prefill (no frozen memory)")
		}
	}
	m.chunkFlat, m.chunkOff = packIDs(chunks, m.chunkFlat, m.chunkOff)
	x := m.Embed.Forward(m.chunkFlat)
	addPositional(x, m.chunkOff, m.Pos, states)
	return splitRows(m.decode(x, states, m.chunkOff, false), m.chunkOff)
}

// decode is the one decoder pass behind Prefill, DecodeStep and
// DecodeChunk. x packs each sequence's new rows, embedded at its next
// positions (sequence s owns rows [off[s], off[s+1])). Every layer
// appends the self-attention K/V of all of them to the states' caches;
// the layers below the top run the rest of the block over all of them
// too, since each feeds K/V rows of the layer above. The top layer runs
// the rest of the block, and the output projection after it, on the rows
// the caller reads: each sequence's last row when last is set (a
// prefill, whose other rows nobody reads), every row otherwise. The
// causal window of a last row is its whole cache, so its result is the
// one the all-rows pass computes. Advances every state past its rows and
// returns the logits of the rows run.
func (m *LMModel) decode(x *mat.Matrix, states []*DecodeState, off []int, last bool) *mat.Matrix {
	top := len(m.Dec) - 1
	for li, dec := range m.Dec {
		dec.bind(states, li)
		dec.SelfAttn.appendKV(x, dec.decSelf, off)
		if last && li == top {
			rows := mat.EnsureShape(&m.last, m.reuse, len(states), x.Cols)
			for s := range states {
				copy(rows.Row(s), x.Row(off[s+1]-1))
			}
			x, off = rows, m.identity(len(states))
		}
		x = dec.decode(x, off)
	}
	for _, st := range states {
		st.pos = st.self[0].Rows()
	}
	return m.Proj.Forward(x)
}

// identity returns the offsets of n one-row sequences: 0, 1, ..., n.
func (m *LMModel) identity(n int) []int {
	for len(m.ident) <= n {
		m.ident = append(m.ident, len(m.ident))
	}
	return m.ident[:n+1]
}

// EncodeBatch runs the embedding and encoder stack over the packed
// prompts and returns an independent copy of the packed encoder memory
// plus its offsets table — the frozen memory that Prefill computes
// internally, exposed for the full-recompute reference path.
func (m *LMModel) EncodeBatch(prompts [][]int) (*mat.Matrix, []int) {
	_, memory := m.encode(prompts)
	return memory.Clone(), append([]int(nil), m.off...)
}

// DecodeFull is the O(L²)-per-token full-recompute reference for the
// cached decode path: it re-runs the decoder stack and output
// projection over the packed full sequences (each prompt plus the
// tokens generated so far) against a frozen packed encoder memory from
// EncodeBatch, returning per-sequence logits (views, per the
// ForwardBatch aliasing contract). The last row of sequence i is
// bit-identical to DecodeStep's row i at the same position — the
// equivalence the decode tests and benchmarks pin.
func (m *LMModel) DecodeFull(seqs [][]int, memory *mat.Matrix, memOff []int) []*mat.Matrix {
	if len(m.Dec) == 0 {
		panic("transformer: DecodeFull requires at least one decoder layer")
	}
	m.refFlat, m.refOff = packIDs(seqs, m.refFlat, m.refOff)
	d := m.Embed.Forward(m.refFlat)
	addPositional(d, m.refOff, m.Pos, nil)
	for _, dec := range m.Dec {
		d = dec.ForwardBatch(d, memory, m.refOff, memOff)
	}
	return splitRows(m.Proj.Forward(d), m.refOff)
}

// bind points the block's cache lists at decoder layer li of states.
func (d *DecoderLayer) bind(states []*DecodeState, li int) {
	d.decSelf = d.decSelf[:0]
	d.decCross = d.decCross[:0]
	for _, st := range states {
		d.decSelf = append(d.decSelf, &st.self[li])
		d.decCross = append(d.decCross, &st.cross[li])
	}
}

// decode runs the block on x's packed rows against the caches bind
// pointed it at (sequence s owns rows [off[s], off[s+1])), whose
// self-attention K/V are already the last rows of its self cache: row j
// of a sequence attends the causal window the j-th sequential step would
// see, and the whole frozen memory.
func (d *DecoderLayer) decode(x *mat.Matrix, off []int) *mat.Matrix {
	a := d.SelfAttn.attendCached(x, d.decSelf, off, true)
	h1 := d.LN1.ForwardResidual(a, x)

	c := d.CrossAttn.attendCached(h1, d.decCross, off, false)
	h2 := d.LN2.ForwardResidual(c, h1)

	f := d.FF.Forward(h2)
	return d.LN3.ForwardResidual(f, h2)
}

// appendKV projects kv through WK and WV — one fused kernel product each
// over all its packed rows — and appends sequence s's rows
// [off[s], off[s+1]) to caches[s].
func (a *MultiHeadAttention) appendKV(kv *mat.Matrix, caches []*KVCache, off []int) {
	k := a.WK.Forward(kv)
	v := a.WV.Forward(kv)
	for s, c := range caches {
		c.appendRows(k, v, off[s], off[s+1])
	}
}

// attendCached is the cached variant of ForwardBatch: x packs query rows
// per sequence (sequence s owns rows [off[s], off[s+1])), so WQ and WO
// still execute as one fused kernel product over all packed rows, while
// the score/value work of a sequence touches only its own cache. When
// causal is set (self-attention) the rows are the cache's last ones and
// row j of a sequence attends only cache rows [0, base+j], base being
// the cache length before them — the window the equivalent single-token
// step would see; cross-attention passes false and every row attends the
// whole frozen cache. The arithmetic is mat.Attend, the body of the
// batched path too, which is what makes every cached pass bit-identical
// to the block-diagonal batch computation over the same rows. Returns the
// context rows through WO. A cache without rows has nothing to normalise
// over and is rejected by sequence.
func (a *MultiHeadAttention) attendCached(x *mat.Matrix, caches []*KVCache, off []int, causal bool) *mat.Matrix {
	if len(caches) != len(off)-1 {
		panic(fmt.Sprintf("transformer: cached attention with %d caches for %d sequences", len(caches), len(off)-1))
	}
	q := a.WQ.Forward(x)
	ctx := a.context(x.Rows)
	a.cached = cachedAttend{a.Heads, a.HeadDim, ctx, q, caches, off, causal}
	pairs := 0 // (query row, key row) pairs one head attends
	for s, c := range caches {
		if c.rows == 0 {
			panic(fmt.Sprintf("transformer: sequence %d attends an empty KV cache", s))
		}
		n := off[s+1] - off[s]
		pairs += n * c.rows
		if causal {
			pairs -= n * (n - 1) / 2
		}
	}
	mat.Fork(len(caches)*a.Heads, a.Heads*pairs*(2*a.HeadDim+mat.WorkExp), &a.cached)
	a.cached = cachedAttend{}
	return a.WO.Forward(ctx)
}

// cachedAttend is attendCached's attention as a mat.Fork body over
// (sequence, head) pairs, pair p being head p%heads of sequence
// p/heads: each query row of the sequence over its own KV cache into the
// head's columns of its own row of dst. Splitting by pair, not by
// sequence, keeps a one-prompt prefill's attention spread across heads.
type cachedAttend struct {
	heads, headDim int
	dst, q         *mat.Matrix
	caches         []*KVCache
	off            []int
	causal         bool
}

// scoreScratches lends each span of pairs the score row of one
// (head, query row).
var scoreScratches mat.FreeList[[]float64]

func (j *cachedAttend) Range(p0, p1 int) {
	maxRows := 0
	for _, c := range j.caches[p0/j.heads : (p1-1)/j.heads+1] {
		maxRows = max(maxRows, c.capRows)
	}
	// sized by capacity, so a reserved cache growing row by row never
	// regrows it
	scores := mat.GrowFloats(scoreScratches.Get(newKeyScratch), maxRows)
	hd := j.headDim
	scale := 1 / math.Sqrt(float64(hd))
	for p := p0; p < p1; p++ {
		s, ho := p/j.heads, p%j.heads*hd
		c, r0, r1 := j.caches[s], j.off[s], j.off[s+1]
		base := c.rows - (r1 - r0)
		for r := r0; r < r1; r++ {
			window := c.rows
			if j.causal {
				window = base + r - r0 + 1
			}
			dst, q := j.dst.Row(r), j.q.Row(r)
			mat.Attend(dst[ho:ho+hd], q[ho:ho+hd], c.k[ho*c.capRows:], c.capRows, c.v[ho:], c.dim, window, scale, scores)
		}
	}
	scoreScratches.Put(scores)
}
