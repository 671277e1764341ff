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
// unit of the radix prefix cache. Spans taken from a state rebuild a
// bit-identical state through LoadKV, and Slice re-splits a span without
// copying (the backing rows are shared and treated as read-only).
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

// Slice returns rows [r0, r1) of the span as a view sharing the backing
// storage — the radix tree's edge-split primitive.
func (sp *KVSpan) Slice(r0, r1 int) *KVSpan {
	if r0 < 0 || r1 < r0 || r1 > sp.Rows {
		panic(fmt.Sprintf("transformer: KVSpan Slice [%d, %d) of %d rows", r0, r1, sp.Rows))
	}
	out := &KVSpan{Rows: r1 - r0, Dim: sp.Dim}
	for li := range sp.K {
		out.K = append(out.K, sp.K[li][r0*sp.Dim:r1*sp.Dim])
		out.V = append(out.V, sp.V[li][r0*sp.Dim:r1*sp.Dim])
	}
	return out
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

// Prefill runs the prompt phase of incremental decoding: one packed
// forward pass over the prompts that seeds each sequence's DecodeState
// with every decoder layer's projected self-attention K/V rows and the
// frozen cross-attention K/V of the prompt's encoder memory, and computes
// the one thing decoding reads from it — the logits of each prompt's last
// row (see forwardPacked). States are reset first, so recycled states can
// be passed directly. Returns one 1 x vocab view per sequence (valid
// until the model's next forward), the first generated token's
// distribution: bit-identical to the last row ForwardBatch returns for
// that prompt. An empty prompt is rejected by index.
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
	outs := m.forwardPacked(prompts, states)
	for i, st := range states {
		st.pos = len(prompts[i])
	}
	return outs
}

// DecodeStep advances every sequence by one token: tokens[i] is the
// token just emitted for states[i] (initially the argmax of the
// prefill's last row). The batch's single new rows are packed into one
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
	m.stepIDs = append(m.stepIDs[:0], tokens...)
	x := m.Embed.Forward(m.stepIDs)
	for i, st := range states {
		if st.pos == 0 {
			panic("transformer: DecodeStep before Prefill")
		}
		row := x.Row(i)
		pe := m.Pos.Row(st.pos % m.Pos.Rows)
		for j := range row {
			row[j] += pe[j]
		}
	}
	d := x
	for li, dec := range m.Dec {
		d = dec.DecodeStep(d, states, li)
	}
	logits := m.Proj.Forward(d)
	for _, st := range states {
		st.pos++
	}
	return logits
}

// DecodeChunk advances every sequence by a run of tokens in one fused
// pass: chunks[i] (non-empty, possibly ragged across sequences) is fed
// to states[i] exactly as len(chunks[i]) consecutive DecodeStep calls
// would feed it, but the Σk new rows are packed into one matrix so every
// Linear in the decoder stack issues a single kernel product for the
// whole chunk batch. Row j of sequence i attends its own cache rows
// [0, Pos+j] — the same causal window the sequential steps see — through
// the attention body the single-row path runs (mat.Attend), so
// the returned per-sequence logits (views, ForwardBatch aliasing
// contract) are bit-identical to the stacked DecodeStep logits over the
// same tokens. This is the prefix-cache suffix replayer; unlike
// DecodeStep it is also legal at Pos 0 on a state holding a frozen
// cross-attention memory, where it reproduces the prefill's decoder
// computation row-for-row.
func (m *LMModel) DecodeChunk(states []*DecodeState, chunks [][]int) []*mat.Matrix {
	if len(states) == 0 || len(states) != len(chunks) {
		panic(fmt.Sprintf("transformer: DecodeChunk with %d states for %d chunks", len(states), len(chunks)))
	}
	m.chunkFlat, m.chunkOff = packIDs(chunks, m.chunkFlat, m.chunkOff)
	x := m.Embed.Forward(m.chunkFlat)
	for s, st := range states {
		if st.cross[0].Rows() == 0 {
			panic("transformer: DecodeChunk before Prefill (no frozen memory)")
		}
		for j := range chunks[s] {
			row := x.Row(m.chunkOff[s] + j)
			pe := m.Pos.Row((st.pos + j) % m.Pos.Rows)
			for i := range row {
				row[i] += pe[i]
			}
		}
	}
	d := x
	for li, dec := range m.Dec {
		d = dec.DecodeChunk(d, states, li, m.chunkOff)
	}
	logits := m.Proj.Forward(d)
	for s, st := range states {
		st.pos += len(chunks[s])
	}
	return splitRows(logits, m.chunkOff)
}

// EncodeBatch runs the embedding and encoder stack over the packed
// prompts and returns an independent copy of the packed encoder memory
// plus its offsets table — the frozen memory that Prefill computes
// internally, exposed for the full-recompute reference path.
func (m *LMModel) EncodeBatch(prompts [][]int) (*mat.Matrix, []int) {
	m.flat, m.off = packIDs(prompts, m.flat, m.off)
	x := m.Embed.Forward(m.flat)
	addPositional(x, m.off, m.Pos)
	h := x
	for _, e := range m.Enc {
		h = e.ForwardBatch(h, m.off)
	}
	return h.Clone(), append([]int(nil), m.off...)
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
	addPositional(d, m.refOff, m.Pos)
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

// DecodeStep runs the block on one new token row per sequence (x is
// B x dim), reading and extending the per-sequence caches of decoder
// layer li: causal self-attention appends the new K/V row and attends
// the whole cache; cross-attention attends the frozen prompt memory.
func (d *DecoderLayer) DecodeStep(x *mat.Matrix, states []*DecodeState, li int) *mat.Matrix {
	d.bind(states, li)
	return d.step(x, true)
}

// step is the block over one row per bound sequence; appendSelf is false
// when the rows' own self-attention K/V are already the caches' last rows.
func (d *DecoderLayer) step(x *mat.Matrix, appendSelf bool) *mat.Matrix {
	a := d.SelfAttn.DecodeStep(x, d.decSelf, appendSelf)
	h1 := d.LN1.ForwardResidual(a, x)

	c := d.CrossAttn.DecodeStep(h1, d.decCross, false)
	h2 := d.LN2.ForwardResidual(c, h1)

	f := d.FF.Forward(h2)
	return d.LN3.ForwardResidual(f, h2)
}

// prefillLast is the top decoder layer of a prefill, which computes only
// what decoding reads: the self-attention K/V of every row of x and the
// cross-attention K/V of every memory row go straight into the caches of
// decoder layer li (off pairs sequence s's rows of both), and the rest of
// the block — Q, both attentions, the out-projections, the FFN, the layer
// norms — runs as the cached step on each sequence's last row, gathered
// into last (n x dim). The causal window of a sequence's last row is its
// whole cache, so the returned n x dim rows are bit-identical to those
// rows of ForwardBatch.
func (d *DecoderLayer) prefillLast(x, memory *mat.Matrix, off []int, states []*DecodeState, li int, last *mat.Matrix) *mat.Matrix {
	d.bind(states, li)
	d.SelfAttn.appendKV(x, d.decSelf, off)
	d.CrossAttn.appendKV(memory, d.decCross, off)
	for s := range states {
		copy(last.Row(s), x.Row(off[s+1]-1))
	}
	return d.step(last, false)
}

// DecodeChunk runs the block on a packed run of new token rows per
// sequence (sequence s owns x rows [off[s], off[s+1])), extending the
// caches of decoder layer li exactly as the equivalent DecodeStep
// sequence would.
func (d *DecoderLayer) DecodeChunk(x *mat.Matrix, states []*DecodeState, li int, off []int) *mat.Matrix {
	d.bind(states, li)
	a := d.SelfAttn.DecodeChunk(x, d.decSelf, off, true)
	h1 := d.LN1.ForwardResidual(a, x)

	c := d.CrossAttn.DecodeChunk(h1, d.decCross, off, false)
	h2 := d.LN2.ForwardResidual(c, h1)

	f := d.FF.Forward(h2)
	return d.LN3.ForwardResidual(f, h2)
}

// harvestKV copies the projected K/V rows of the block's last
// ForwardBatch call (a prefill) into the per-sequence caches of decoder
// layer li.
func (d *DecoderLayer) harvestKV(states []*DecodeState, li int) {
	d.bind(states, li)
	d.SelfAttn.harvestKV(d.decSelf)
	d.CrossAttn.harvestKV(d.decCross)
}

// harvestKV appends the last ForwardBatch call's projected key/value
// rows to each sequence's cache (sequence s owns packed rows
// [kvOff[s], kvOff[s+1])). Must run before the block's Linears execute
// again: with buffer reuse on, the projections live in reusable
// buffers.
func (a *MultiHeadAttention) harvestKV(caches []*KVCache) {
	for s, c := range caches {
		c.appendRows(a.k, a.v, a.kvOff[s], a.kvOff[s+1])
	}
}

// appendKV projects kv through WK and WV — one fused kernel product each
// over all its packed rows — and appends sequence s's rows
// [off[s], off[s+1]) to caches[s]: row s when off is nil, a step.
func (a *MultiHeadAttention) appendKV(kv *mat.Matrix, caches []*KVCache, off []int) {
	k := a.WK.Forward(kv)
	v := a.WV.Forward(kv)
	for s, c := range caches {
		r0, r1 := s, s+1
		if off != nil {
			r0, r1 = off[s], off[s+1]
		}
		c.appendRows(k, v, r0, r1)
	}
}

// DecodeStep is the cached variant of ForwardBatch: x packs one new
// query row per sequence (B x dim), so WQ (and, for self-attention, WK
// and WV) still execute as one fused kernel product over the whole
// batch, while the score/value work per sequence touches only its own
// cache — causal masking degenerates to "attend to own cache only".
// When appendKV is set (causal self-attention) the new K/V rows are
// appended to the caches before attending, so the new token sees
// itself; cross-attention passes false and reads the frozen caches, and
// so does a prefill's top layer, whose rows are already cached.
// Returns the B x dim context rows through WO.
func (a *MultiHeadAttention) DecodeStep(x *mat.Matrix, caches []*KVCache, appendKV bool) *mat.Matrix {
	if len(caches) != x.Rows {
		panic(fmt.Sprintf("transformer: DecodeStep with %d caches for %d rows", len(caches), x.Rows))
	}
	q := a.WQ.Forward(x)
	if appendKV {
		a.appendKV(x, caches, nil)
	}
	concat := mat.EnsureShape(&a.concat, a.reuse, x.Rows, a.Dim)
	a.attendCached(concat, q, caches, nil, false)
	return a.WO.Forward(concat)
}

// DecodeChunk is the multi-row variant of DecodeStep: x packs a run of
// new query rows per sequence (sequence s owns rows [off[s], off[s+1])),
// so the projections still execute as one fused kernel product over all
// Σk packed rows. When causal is set (self-attention) the chunk's K/V
// rows are appended first and row j of a sequence attends only cache
// rows [0, base+j] — base being the cache length before the append — so
// each row sees exactly the window the equivalent single-token step
// would; cross-attention passes false and every row attends the whole
// frozen cache. The score/value arithmetic is mat.Attend, shared with
// DecodeStep and the batched path, which is what makes chunked decoding
// bit-identical to the sequential steps it fuses.
func (a *MultiHeadAttention) DecodeChunk(x *mat.Matrix, caches []*KVCache, off []int, causal bool) *mat.Matrix {
	if len(caches) != len(off)-1 {
		panic(fmt.Sprintf("transformer: DecodeChunk with %d caches for %d sequences", len(caches), len(off)-1))
	}
	q := a.WQ.Forward(x)
	if causal {
		a.appendKV(x, caches, off)
	}
	concat := mat.EnsureShape(&a.concat, a.reuse, x.Rows, a.Dim)
	a.attendCached(concat, q, caches, off, causal)
	return a.WO.Forward(concat)
}

// cachedAttend is the attention of a DecodeStep or DecodeChunk as a
// mat.Fork body: sequences [s0, s1), each query row of theirs over its
// own KV cache into its own row of dst. A sequence's rows are dst rows
// [off[s], off[s+1]), or the single row s when off is nil (a step, whose
// new row attends the whole cache it was just appended to); a causal
// chunk row j attends cache rows [0, base+j], base being the cache length
// before the chunk's append — the window the j-th sequential step would
// see. The body is mat.Attend — the one the batched path runs — so
// cached scores and context are bit-identical to the block-diagonal
// batch computation over the same rows.
type cachedAttend struct {
	heads, headDim int
	dst, q         *mat.Matrix
	caches         []*KVCache
	off            []int
	causal         bool
}

// rows returns the first dst row of sequence s and how many it has.
func (j *cachedAttend) rows(s int) (r0, n int) {
	if j.off == nil {
		return s, 1
	}
	return j.off[s], j.off[s+1] - j.off[s]
}

// scoreScratches lends each span of sequences the score row of one
// (head, query row).
var scoreScratches mat.FreeList[[]float64]

func (j *cachedAttend) Range(s0, s1 int) {
	maxRows := 0
	for _, c := range j.caches[s0:s1] {
		maxRows = max(maxRows, c.capRows)
	}
	// sized by capacity, so a reserved cache growing row by row never
	// regrows it
	scores := mat.GrowFloats(scoreScratches.Get(newKeyScratch), maxRows)
	hd := j.headDim
	scale := 1 / math.Sqrt(float64(hd))
	for s := s0; s < s1; s++ {
		c := j.caches[s]
		r0, n := j.rows(s)
		base := c.rows - n
		for h := 0; h < j.heads; h++ {
			ho := h * hd
			for i := 0; i < n; i++ {
				window := c.rows
				if j.causal {
					window = base + i + 1
				}
				dst, q := j.dst.Row(r0+i), j.q.Row(r0+i)
				mat.Attend(dst[ho:ho+hd], q[ho:ho+hd], c.k[ho*c.capRows:], c.capRows, c.v[ho:], c.dim, window, scale, scores)
			}
		}
	}
	scoreScratches.Put(scores)
}

// attendCached runs the block's heads over every sequence's cache,
// split by sequence across the mat.Fork helpers; see cachedAttend for
// off and causal. A cache without rows has nothing to normalise over and
// is rejected by sequence.
func (a *MultiHeadAttention) attendCached(dst, q *mat.Matrix, caches []*KVCache, off []int, causal bool) {
	a.cached = cachedAttend{a.Heads, a.HeadDim, dst, q, caches, off, causal}
	pairs := 0 // (query row, key row) pairs one head attends
	for s, c := range caches {
		if c.rows == 0 {
			panic(fmt.Sprintf("transformer: sequence %d attends an empty KV cache", s))
		}
		_, n := a.cached.rows(s)
		pairs += n * c.rows
		if causal {
			pairs -= n * (n - 1) / 2
		}
	}
	mat.Fork(len(caches), a.Heads*pairs*(2*a.HeadDim+mat.WorkExp), &a.cached)
}
