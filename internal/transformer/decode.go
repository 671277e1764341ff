package transformer

import (
	"fmt"
	"math"
	"sync/atomic"

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
// sequence, in fixed pages of kvPage rows from the one process-wide pool
// (kvPages): page i holds rows [i*kvPage, (i+1)*kvPage), its keys first,
// feature-major — pg[c*kvPage+j] is feature c of the page's row j, so
// head h's keys are the block pg[h*hd*kvPage:] at stride kvPage and
// every score block is 16 contiguous floats per feature, the form
// mat.AttendPaged reads — then its values row-major from
// pg[dim*kvPage]. Appending takes a page from the pool when the last
// one is full; truncating lets go of the pages past the rows. No cache
// re-strides or regrows, and once the pool holds a working set's pages
// no append allocates. The layout is private to this file — resize,
// appendRows, share, key, value and the attend call are its only
// readers — and it is the one form K/V rows take: the prefix cache holds
// frozen DecodeStates in it (Snapshot, CopyFrom), not a copy in another
// layout.
//
// A page may be held by several caches at once: a snapshot and every
// state copied from it share the pages under their rows, and holds[i]
// counts the caches holding pages[i]. appendRows, the one writer, first
// gives a cache its own copy of a page someone else holds too; a page
// goes back to the pool when its last holder lets go.
//
// Key columns past the cached rows of the last page — its unused rows,
// and whatever a page held when it came back from the pool — are read by
// the score kernel as spare lanes and never stored: lanes do not mix, so
// whatever they hold (NaN included) reaches no result.
type KVCache struct {
	pages [][]float64
	holds []*atomic.Int32
	dim   int
	rows  int
}

// kvPage is the rows one KV page holds, a multiple of mat.AttendBlock;
// at the benchmark's dim 192 a page is 96 KiB. It is sized by
// measurement on a 2-vCPU AVX-512 host, the attention core walking the
// pages inside its kernels: against one unpaged block, one head-row
// over 80-208 rows runs its score pass at parity at any page height and
// its value pass 2-3% over at 32 rows, 4-10% over at 16 (each page's
// values start a new hardware prefetch stream). The whole head-row
// reads 1.00-1.03x at 32 and 1.025-1.055x at 16, five of six rows over
// the 1.03x the page had to meet. A 16-row page (48 KiB) would save
// decode_heavy's 16-row prompts another 16 rows per cross cache.
const kvPage = 32

// KVPageRows is kvPage, for tests outside this package that count
// pages.
const KVPageRows = kvPage

// kvPageBuf is a page and its holder count, atomic because replicas
// share a snapshot's pages and let go of them concurrently.
type kvPageBuf struct {
	pg    []float64
	holds *atomic.Int32
}

// kvPages is the pool every KVCache takes its pages from and gives them
// back to; pagesMade counts the pages it had to make, pagesOut the pages
// at least one cache holds, bytesMade and bytesOut the bytes of the
// pages made (less those dropped) and of the pages held.
var (
	kvPages             mat.FreeList[kvPageBuf]
	pagesMade, pagesOut atomic.Int64
	bytesMade, bytesOut atomic.Int64
)

// KVPages reports how many KV pages the process has made and how many
// distinct pages caches hold now. Once serving is warm the first stays
// flat: every cache, prefix-cache entries included, takes its pages back
// from the pool.
func KVPages() (made, out int64) { return pagesMade.Load(), pagesOut.Load() }

// KVPageMemory reports the bytes of the KV pages caches hold now and of
// the pages the pool keeps for reuse, in that order.
func KVPageMemory() [2]int64 {
	held := bytesOut.Load()
	return [2]int64{held, bytesMade.Load() - held}
}

func noPage() kvPageBuf { return kvPageBuf{} }

// newPage takes a page for dim-wide rows from the pool, held once (a
// pooled page too narrow for dim is dropped and a new one made).
func newPage(dim int) kvPageBuf {
	size := 2 * dim * kvPage
	p := kvPages.Get(noPage)
	if cap(p.pg) < size {
		pagesMade.Add(1)
		bytesMade.Add(8 * int64(size-cap(p.pg)))
		p = kvPageBuf{make([]float64, size), new(atomic.Int32)}
	}
	p.pg = p.pg[:size]
	p.holds.Store(1)
	pagesOut.Add(1)
	bytesOut.Add(8 * int64(cap(p.pg)))
	return p
}

// release lets go of one hold on a page; the last gives it to the pool.
func release(pg []float64, holds *atomic.Int32) {
	if holds.Add(-1) == 0 {
		pagesOut.Add(-1)
		bytesOut.Add(-8 * int64(cap(pg)))
		kvPages.Put(kvPageBuf{pg, holds})
	}
}

// resize makes the cache hold the pages rows rows need: it lets go of
// the pages past them and takes missing ones from the pool. The caller
// sets the row count.
func (c *KVCache) resize(rows int) {
	n := (rows + kvPage - 1) / kvPage
	for len(c.pages) > n {
		last := len(c.pages) - 1
		release(c.pages[last], c.holds[last])
		c.pages[last], c.holds[last] = nil, nil
		c.pages, c.holds = c.pages[:last], c.holds[:last]
	}
	for len(c.pages) < n {
		p := newPage(c.dim)
		c.pages, c.holds = append(c.pages, p.pg), append(c.holds, p.holds)
	}
}

// appendRows copies rows [r0, r1) of the packed projections k and v
// (dim columns each) into the cache, page by page. A page another cache
// also holds is copied first — its rows below the write — so the others
// never see the write.
func (c *KVCache) appendRows(k, v *mat.Matrix, r0, r1 int) {
	c.resize(c.rows + r1 - r0)
	for r0 < r1 {
		i, j := c.rows/kvPage, c.rows%kvPage
		pg := c.pages[i]
		if c.holds[i].Load() > 1 {
			own := newPage(c.dim)
			for f := 0; f < c.dim; f++ {
				copy(own.pg[f*kvPage:][:j], pg[f*kvPage:])
			}
			copy(own.pg[kvPage*c.dim:][:j*c.dim], pg[kvPage*c.dim:])
			release(pg, c.holds[i])
			c.pages[i], c.holds[i], pg = own.pg, own.holds, own.pg
		}
		n := min(r1-r0, kvPage-j)
		mat.PackKeys(pg[j:], kvPage, k.Data[r0*c.dim:], c.dim, n, c.dim)
		copy(pg[(kvPage+j)*c.dim:], v.Data[r0*c.dim:(r0+n)*c.dim])
		c.rows, r0 = c.rows+n, r0+n
	}
}

// truncate drops cached rows beyond rows, letting go of the pages past
// them.
func (c *KVCache) truncate(rows int) {
	c.resize(rows)
	c.rows = rows
}

// share replaces the cache's contents with src's rows [0, rows): it lets
// go of its own pages and holds src's pages under the rows. No row is
// copied; src is only read.
func (c *KVCache) share(src *KVCache, rows int) {
	n := (rows + kvPage - 1) / kvPage
	for _, h := range src.holds[:n] {
		h.Add(1)
	}
	c.truncate(0)
	c.pages, c.holds = append(c.pages, src.pages[:n]...), append(c.holds, src.holds[:n]...)
	c.dim, c.rows = src.dim, rows
}

// key returns feature f of cached row j, value the value's.
func (c *KVCache) key(j, f int) float64   { return c.pages[j/kvPage][f*kvPage+j%kvPage] }
func (c *KVCache) value(j, f int) float64 { return c.pages[j/kvPage][(kvPage+j%kvPage)*c.dim+f] }

// equal reports whether two caches hold bit for bit the same rows (-0
// differs from 0, a NaN equals itself), whatever their spare lanes
// hold.
func (c *KVCache) equal(o *KVCache) bool {
	if c.dim != o.dim || c.rows != o.rows {
		return false
	}
	for j := 0; j < c.rows; j++ {
		for f := 0; f < c.dim; f++ {
			if math.Float64bits(c.key(j, f)) != math.Float64bits(o.key(j, f)) ||
				math.Float64bits(c.value(j, f)) != math.Float64bits(o.value(j, f)) {
				return false
			}
		}
	}
	return true
}

// DecodeState is one sequence's incremental-decoding cache: per decoder
// layer, the growing causal self-attention K/V rows (prompt + generated
// tokens) and the cross-attention K/V of the prompt's frozen encoder
// memory. States are cheap to recycle: Reset lets go of every page and
// keeps the page lists, so a recycled state decodes without allocating
// once the pool holds the pages it needs.
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
	// page lists for SeqLen rows, in one block each: longer sequences
	// grow theirs
	n := (m.Cfg.SeqLen + kvPage - 1) / kvPage
	lists, holds := make([][]float64, 2*len(m.Dec)*n), make([]*atomic.Int32, 2*len(m.Dec)*n)
	span := func(k int) KVCache {
		return KVCache{pages: lists[k*n : k*n : (k+1)*n], holds: holds[k*n : k*n : (k+1)*n], dim: m.Cfg.Dim}
	}
	for i := range st.self {
		st.self[i], st.cross[i] = span(2*i), span(2*i+1)
	}
	return st
}

// Pos returns the next token's position: the number of decoder rows
// (prompt plus generated tokens) currently cached.
func (st *DecodeState) Pos() int { return st.pos }

// Reset empties the state for reuse (free-list recycling) and lets go
// of its pages, each back to the pool unless another state still holds
// it; a prefix-cache entry's snapshot is Reset when it is evicted.
func (st *DecodeState) Reset() {
	for i := range st.self {
		st.self[i].truncate(0)
		st.cross[i].truncate(0)
	}
	st.pos = 0
}

// TruncateTo rewinds the state to position pos (0 <= pos <= Pos()),
// dropping the self-attention rows of later tokens (and giving the pages
// past the rows kept back to the pool) while keeping the frozen
// cross-attention memory. No serving path calls it (a failover
// resumes with one DecodeChunk): it is the tests' rewind, exported for
// this package's and serve's tests, which replay a stream from an
// earlier position and compare the replay with the first pass.
func (st *DecodeState) TruncateTo(pos int) {
	if pos < 0 || pos > st.pos {
		panic(fmt.Sprintf("transformer: TruncateTo(%d) outside [0, %d]", pos, st.pos))
	}
	for i := range st.self {
		st.self[i].truncate(pos)
	}
	st.pos = pos
}

// Snapshot returns a new state sharing the frozen memory and self rows
// [0, rows), at Pos rows (0 <= rows <= Pos()): it holds the pages under
// them, the fewest that hold them, and copies no row. Neither side sees
// the other's later writes (see KVCache). At the memory's length it is
// the state a prefill of the prompt leaves: what the prefix cache keeps,
// until eviction Resets it.
func (st *DecodeState) Snapshot(rows int) *DecodeState {
	if rows < 0 || rows > st.pos {
		panic(fmt.Sprintf("transformer: Snapshot of %d rows outside [0, %d]", rows, st.pos))
	}
	snap := &DecodeState{self: make([]KVCache, len(st.self)), cross: make([]KVCache, len(st.cross))}
	snap.share(st, rows)
	return snap
}

// CopyFrom replaces the state's contents with src's — frozen memory,
// self rows and Pos — by letting go of its own pages and sharing src's:
// the state then decodes exactly as src does, copying a shared page only
// when it first writes into it. src is only read, so one snapshot may be
// copied from concurrently.
func (st *DecodeState) CopyFrom(src *DecodeState) {
	if len(src.self) != len(st.self) {
		panic(fmt.Sprintf("transformer: CopyFrom a %d-layer state into a %d-layer one", len(src.self), len(st.self)))
	}
	st.share(src, src.pos)
}

// share replaces the state's contents with src's memory and self rows
// [0, rows), sharing src's pages.
func (st *DecodeState) share(src *DecodeState, rows int) {
	for li := range st.self {
		st.self[li].share(&src.self[li], rows)
		st.cross[li].share(&src.cross[li], src.cross[li].rows)
	}
	st.pos = rows
}

// Equal reports whether two states hold bitwise the same Pos, self rows
// below it and frozen memory, whatever their spare lanes hold. No
// serving path calls it: it is the oracle the bit-identity tests compare
// states with (cached == recompute, prefix-cached == uncached, forked ==
// inline), exported for this package's and spec's tests.
func (st *DecodeState) Equal(o *DecodeState) bool {
	if st.pos != o.pos || len(st.self) != len(o.self) {
		return false
	}
	for li := range st.self {
		if !st.self[li].equal(&o.self[li]) || !st.cross[li].equal(&o.cross[li]) {
			return false
		}
	}
	return true
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
		if st.cross[0].rows == 0 {
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
		st.pos = st.self[0].rows
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
// internally, exposed for the full-recompute reference path. No serving
// path calls it: it is a test oracle beside DecodeFull, exported for
// serve's tests because testutil, which transformer's own tests import,
// cannot import transformer.
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
// equivalence the decode tests and benchmarks pin. No serving path calls
// it: it is a test oracle, exported for the bit-identity tests of this
// package and of serve because testutil, which transformer's own tests
// import, cannot import transformer.
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
		maxRows = max(maxRows, len(c.pages)*kvPage)
	}
	// sized by whole pages, so a cache growing row by row regrows it at
	// most once a page
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
			mat.AttendPaged(dst[ho:ho+hd], q[ho:ho+hd], c.pages, ho*kvPage, c.dim*kvPage+ho, kvPage, c.dim, window, scale, scores)
		}
	}
	scoreScratches.Put(scores)
}
