package transformer_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/testutil"
	"rt3/internal/transformer"
)

// decodeCfg is the decode-test topology: two encoder layers (the
// paper's LM shape) and two decoder layers, so the multi-layer cache
// path — where layer l+1's K/V come from layer l's outputs — is
// exercised, not just the single-decoder special case.
var decodeCfg = transformer.Config{
	Vocab: 40, Dim: 16, Heads: 4, FFHidden: 24, EncLayers: 2, DecLayers: 2, SeqLen: 12,
}

func newDecodeModel(t testing.TB, reuse bool) *transformer.LMModel {
	t.Helper()
	m := transformer.NewLMModel(decodeCfg, rand.New(rand.NewSource(7)))
	m.SetBufferReuse(reuse)
	return m
}

// greedyRow returns the argmax of the last row of logits.
func greedyRow(logits *mat.Matrix) int { return logits.ArgmaxRow(logits.Rows - 1) }

// lastRow returns the last row of logits as a 1 x vocab view.
func lastRow(logits *mat.Matrix) *mat.Matrix { return logits.RowSpan(logits.Rows-1, logits.Rows) }

// newStates builds n empty decode states for m.
func newStates(m *transformer.LMModel, n int) []*transformer.DecodeState {
	states := make([]*transformer.DecodeState, n)
	for i := range states {
		states[i] = m.NewDecodeState()
	}
	return states
}

// TestPrefillMatchesForwardBatch pins the prompt phase at tol 0: Prefill
// returns, per prompt, the one row decoding reads — the last row of
// ForwardBatch's logits — and leaves in every decoder layer's caches the
// self K/V rows the chunk path (DecodeChunk from position 0, which runs
// every layer over every row) rebuilds and the cross K/V of the frozen
// encoder memory. Ragged prompts, a one-token prompt (all of whose rows
// are last rows) among them, with and without buffer reuse, alone and in
// a batch of nine.
func TestPrefillMatchesForwardBatch(t *testing.T) {
	for _, lens := range [][]int{{1}, {7}, {6, 1, 9, 3}, {5, 1, 12, 3, 8, 1, 2, 11, 4}} {
		for _, reuse := range []bool{false, true} {
			what := fmt.Sprintf("lens %v, reuse %v", lens, reuse)
			prompts := raggedSeqs(decodeCfg.Vocab, lens, 11)
			want := newDecodeModel(t, false).ForwardBatch(prompts)

			m := newDecodeModel(t, reuse)
			states := newStates(m, len(prompts))
			got := m.Prefill(states, prompts)
			if len(got) != len(prompts) {
				t.Fatalf("%s: %d outputs for %d prompts", what, len(got), len(prompts))
			}
			for i := range prompts {
				if got[i].Rows != 1 || !mat.Equal(got[i], lastRow(want[i]), 0) {
					t.Fatalf("%s, prompt %d: prefill's row differs from ForwardBatch's last row", what, i)
				}
				if states[i].Pos() != len(prompts[i]) {
					t.Fatalf("%s, prompt %d: state pos %d, want %d", what, i, states[i].Pos(), len(prompts[i]))
				}
			}

			// self K/V through the chunk path over every row, cross K/V as
			// each layer's WK/WV over the encoder memory
			rebuilt := make([]*transformer.DecodeState, len(prompts))
			for i, st := range states {
				rebuilt[i] = st.Snapshot(0)
			}
			m.DecodeChunk(rebuilt, prompts)
			for i, st := range states {
				if !st.Equal(rebuilt[i]) {
					t.Fatalf("%s, prompt %d: self K/V differ from the chunk path's", what, i)
				}
			}
			ref := newDecodeModel(t, false)
			memory, memOff := ref.EncodeBatch(prompts)
			for li, dec := range ref.Dec {
				k, v := dec.CrossAttn.WK.Forward(memory), dec.CrossAttn.WV.Forward(memory)
				for i, st := range states {
					ck, cv := st.CrossRows(li)
					if r0, r1 := memOff[i], memOff[i+1]; !slices.Equal(ck, k.RowSpan(r0, r1).Data) || !slices.Equal(cv, v.RowSpan(r0, r1).Data) {
						t.Fatalf("%s, layer %d, prompt %d: cross K/V differ from WK/WV over the encoder memory", what, li, i)
					}
				}
			}
		}
	}
}

// TestPrefillRejectsEmptyPrompt: an empty prompt has no last row; it is
// rejected by index before any state is touched, not by the decode step
// that would follow.
func TestPrefillRejectsEmptyPrompt(t *testing.T) {
	m := newDecodeModel(t, true)
	states := newStates(m, 2)
	m.Prefill(states, [][]int{{3, 4}, {5}})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "transformer: Prefill") || !strings.Contains(msg, "prompt 1") {
			t.Fatalf("empty prompt 1: got panic %q", msg)
		}
		if states[0].Pos() != 2 || states[1].Pos() != 1 {
			t.Fatalf("states at %d, %d after a rejected prefill, want 2, 1", states[0].Pos(), states[1].Pos())
		}
	}()
	m.Prefill(states, [][]int{{3}, {}})
}

// TestPrefillForkMatchesInline: a prefill wide enough that the lane
// kernels and the cached attention of every decoder layer fan out gives
// the bits of its inline run (GOMAXPROCS 1): logits and every cached row.
// Eight ragged prompts, and one 128-token prompt, whose decoder attention
// can fan out only across heads.
func TestPrefillForkMatchesInline(t *testing.T) {
	cfg := transformer.Config{Vocab: 64, Dim: 64, Heads: 4, FFHidden: 128, EncLayers: 1, DecLayers: 2, SeqLen: 128}
	for _, lens := range [][]int{{120, 97, 1, 128, 64, 110, 33, 128}, {128}} {
		prompts := raggedSeqs(cfg.Vocab, lens, 14)
		run := func(procs int) (outs []*mat.Matrix, states []*transformer.DecodeState, regions int64) {
			testutil.Procs(t, procs)
			m := transformer.NewLMModel(cfg, rand.New(rand.NewSource(15)))
			m.SetBufferReuse(true)
			states = newStates(m, len(prompts))
			before := mat.ForkStats().Regions
			outs = m.Prefill(states, prompts)
			regions = mat.ForkStats().Regions - before
			for i := range outs {
				outs[i] = outs[i].Clone()
			}
			return outs, states, regions
		}
		want, wantStates, inline := run(1)
		got, gotStates, forked := run(2)
		if inline != 0 || forked == 0 {
			t.Fatalf("lens %v: regions fanned out: %d at GOMAXPROCS 1, %d at 2", lens, inline, forked)
		}
		for i := range prompts {
			if !mat.Equal(got[i], want[i], 0) {
				t.Fatalf("lens %v, prompt %d: forked prefill logits differ from inline", lens, i)
			}
			if !gotStates[i].Equal(wantStates[i]) {
				t.Fatalf("lens %v, prompt %d: forked prefill K/V differ from inline", lens, i)
			}
		}
	}
}

// TestPrefillSteadyStateAllocs: a serving-mode prefill keeps no
// probability blocks, so alternating two prompt-length sets on recycled
// states allocates, after warm-up, only the views it returns: no buffer
// of it is sized by a shape it cannot re-slice, and the KV pages come
// back from the pool.
func TestPrefillSteadyStateAllocs(t *testing.T) {
	m := newDecodeModel(t, true)
	sets := [][][]int{
		raggedSeqs(decodeCfg.Vocab, []int{9, 2, 7}, 16),
		raggedSeqs(decodeCfg.Vocab, []int{3, 11, 5}, 17),
	}
	states := newStates(m, 3)
	for i := 0; i < 4; i++ {
		m.Prefill(states, sets[i%2])
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		m.Prefill(states, sets[i%2])
		i++
	})
	// the slice of views and one header per sequence
	if want := float64(1 + len(states)); allocs > want {
		t.Fatalf("%v allocs per steady-state prefill across shape changes, want <= %v", allocs, want)
	}
}

// TestRecycledStateServingOrderAllocs replays what a serving slot does
// over decode_heavy's range of lengths: one recycled state is Reset,
// prefilled with a 16-token prompt and stepped to a row budget that rises
// from 80 to 208 from run to run. After one warm-up pass at the longest
// length, by another state whose pages went back to the pool, a run
// allocates no more than TestPrefillSteadyStateAllocs allows one
// sequence's prefill: its pages come from the pool, and nothing regrows
// when the next request is longer than any the state served before.
func TestRecycledStateServingOrderAllocs(t *testing.T) {
	cfg := decodeCfg
	cfg.SeqLen = 256
	m := transformer.NewLMModel(cfg, rand.New(rand.NewSource(8)))
	m.SetBufferReuse(true)
	prompt := raggedSeqs(cfg.Vocab, []int{16}, 34)
	serve := func(st *transformer.DecodeState, rows int) {
		st.Reset()
		states := []*transformer.DecodeState{st}
		tok := []int{greedyRow(m.Prefill(states, prompt)[0])}
		for st.Pos() < rows {
			tok[0] = m.DecodeStep(states, tok).ArgmaxRow(0)
		}
	}
	budgets := []int{80, 112, 144, 176, 208}
	warm := m.NewDecodeState()
	serve(warm, budgets[len(budgets)-1])
	warm.Reset()
	st, i := m.NewDecodeState(), 0
	allocs := testing.AllocsPerRun(len(budgets)-1, func() {
		serve(st, budgets[i])
		i++
	})
	// the slice of views and one header per sequence
	if want := 2.0; allocs > want {
		t.Fatalf("%v allocs per recycled request over rising budgets %v, want <= %v", allocs, budgets, want)
	}
}

// TestKVPagesReturnToPool: every page a state takes — prefill, steps
// across page edges, a chunk, a snapshot and a copy of it — is back in
// the pool once every state is Reset, TruncateTo gives back the pages
// past the rows it keeps, and a second round of the same work makes no
// page.
func TestKVPagesReturnToPool(t *testing.T) {
	cfg := decodeCfg
	cfg.SeqLen = 256
	m := transformer.NewLMModel(cfg, rand.New(rand.NewSource(9)))
	m.SetBufferReuse(true)
	prompts := raggedSeqs(cfg.Vocab, []int{70, 5, 130}, 35)
	_, start := transformer.KVPages()
	round := func() {
		states := newStates(m, len(prompts))
		tokens := make([]int, len(prompts))
		for i, out := range m.Prefill(states, prompts) {
			tokens[i] = greedyRow(out)
		}
		for step := 0; step < 70; step++ {
			m.DecodeStep(states, tokens)
		}
		m.DecodeChunk(states, [][]int{{1, 2}, {3}, {4, 5, 6}})
		_, before := transformer.KVPages()
		states[0].TruncateTo(10)
		// the self pages past the first in each of two layers
		want := int64(2 * ((70+70+2+transformer.KVPageRows-1)/transformer.KVPageRows - 1))
		if _, after := transformer.KVPages(); before-after != want {
			t.Fatalf("TruncateTo from %d to 10 rows gave back %d pages, want %d", 70+70+2, before-after, want)
		}
		snap := states[2].Snapshot(100)
		copied := m.NewDecodeState()
		copied.CopyFrom(snap)
		for _, st := range append(states, snap, copied) {
			st.Reset()
		}
		if _, out := transformer.KVPages(); out != start {
			t.Fatalf("%d pages out after every state was Reset, %d before", out, start)
		}
	}
	round()
	made, _ := transformer.KVPages()
	round()
	if again, _ := transformer.KVPages(); again != made {
		t.Fatalf("the second round made %d pages; the pool held them all", again-made)
	}
}

// TestBackwardAfterReusingForwardPanics: a buffer-reusing forward is the
// serving mode and keeps no probability blocks, so Backward after it is
// refused by name instead of differentiating stale ones.
func TestBackwardAfterReusingForwardPanics(t *testing.T) {
	a := transformer.NewMultiHeadAttention("attn", 8, 2, rand.New(rand.NewSource(18)))
	x, off := mat.New(5, 8), []int{0, 2, 5}
	a.ForwardBatch(x, x, off, off, true)
	a.Backward(mat.New(5, 8)) // training mode: fine
	transformer.SetAttentionReuse(a, true)
	a.ForwardBatch(x, x, off, off, true)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Backward") || !strings.Contains(msg, "buffer reuse") {
			t.Fatalf("Backward after a reusing forward: got panic %q", msg)
		}
	}()
	a.Backward(mat.New(5, 8))
}

// TestDecodeStepBitIdenticalToFullRecompute is the tentpole invariant:
// generating N tokens through the cached DecodeStep path produces, at
// every step, logits bit-identical to re-running the whole decoder
// stack over the growing sequence against the frozen prompt memory
// (DecodeFull) — with and without buffer reuse, over ragged prompts.
func TestDecodeStepBitIdenticalToFullRecompute(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		name := "fresh"
		if reuse {
			name = "reuse"
		}
		t.Run(name, func(t *testing.T) {
			prompts := raggedSeqs(decodeCfg.Vocab, []int{5, 1, 8, 3, 6}, 13)
			m := newDecodeModel(t, reuse)
			ref := newDecodeModel(t, reuse)

			memory, memOff := ref.EncodeBatch(prompts)
			states := make([]*transformer.DecodeState, len(prompts))
			for i := range states {
				states[i] = m.NewDecodeState()
			}
			outs := m.Prefill(states, prompts)
			tokens := make([]int, len(prompts))
			seqs := make([][]int, len(prompts))
			for i := range prompts {
				tokens[i] = greedyRow(outs[i])
				seqs[i] = append(append([]int(nil), prompts[i]...), tokens[i])
			}

			const genLen = 10
			for step := 0; step < genLen; step++ {
				logits := m.DecodeStep(states, tokens)
				refs := ref.DecodeFull(seqs, memory, memOff)
				for i := range prompts {
					got := logits.RowSpan(i, i+1)
					want := refs[i].RowSpan(refs[i].Rows-1, refs[i].Rows)
					if !mat.Equal(got, want, 0) {
						t.Fatalf("step %d seq %d: cached logits differ from full recompute", step, i)
					}
				}
				for i := range prompts {
					tokens[i] = logits.ArgmaxRow(i)
					seqs[i] = append(seqs[i], tokens[i])
				}
			}
		})
	}
}

// TestDecodeStateRecycle pins the free-list contract: a state that
// already served one generation, passed back to Prefill, behaves
// exactly like a fresh one (and keeps its reserved storage).
func TestDecodeStateRecycle(t *testing.T) {
	m := newDecodeModel(t, true)
	first := raggedSeqs(decodeCfg.Vocab, []int{7, 4}, 17)
	states := []*transformer.DecodeState{m.NewDecodeState(), m.NewDecodeState()}
	outs := m.Prefill(states, first)
	tokens := []int{greedyRow(outs[0]), greedyRow(outs[1])}
	for step := 0; step < 6; step++ {
		logits := m.DecodeStep(states, tokens)
		tokens[0], tokens[1] = logits.ArgmaxRow(0), logits.ArgmaxRow(1)
	}

	// recycle onto different prompts and compare against fresh states
	second := raggedSeqs(decodeCfg.Vocab, []int{3, 9}, 19)
	fresh := []*transformer.DecodeState{m.NewDecodeState(), m.NewDecodeState()}
	wantOuts := m.Prefill(fresh, second)
	wantTok := []int{greedyRow(wantOuts[0]), greedyRow(wantOuts[1])}
	var wantLogits []*mat.Matrix
	for step := 0; step < 6; step++ {
		logits := m.DecodeStep(fresh, wantTok)
		wantLogits = append(wantLogits, logits.Clone())
		wantTok[0], wantTok[1] = logits.ArgmaxRow(0), logits.ArgmaxRow(1)
	}

	gotOuts := m.Prefill(states, second)
	gotTok := []int{greedyRow(gotOuts[0]), greedyRow(gotOuts[1])}
	if gotTok[0] != greedyRow(wantOuts[0]) || gotTok[1] != greedyRow(wantOuts[1]) {
		t.Fatalf("recycled prefill tokens %v differ from fresh", gotTok)
	}
	for step := 0; step < 6; step++ {
		logits := m.DecodeStep(states, gotTok)
		if !mat.Equal(logits, wantLogits[step], 0) {
			t.Fatalf("step %d: recycled state logits differ from fresh state", step)
		}
		gotTok[0], gotTok[1] = logits.ArgmaxRow(0), logits.ArgmaxRow(1)
	}
}

// TestDecodeCacheGrowth decodes past a page edge so the KV caches take a
// second page mid-generation; the rows of the first must stay where the
// attention core reads them (logits keep matching the full-recompute
// reference).
func TestDecodeCacheGrowth(t *testing.T) {
	prompts := raggedSeqs(decodeCfg.Vocab, []int{4, 2}, 23)
	m := newDecodeModel(t, true)
	ref := newDecodeModel(t, true)

	memory, memOff := ref.EncodeBatch(prompts)
	states := []*transformer.DecodeState{m.NewDecodeState(), m.NewDecodeState()}
	outs := m.Prefill(states, prompts)
	tokens := []int{greedyRow(outs[0]), greedyRow(outs[1])}
	seqs := [][]int{
		append(append([]int(nil), prompts[0]...), tokens[0]),
		append(append([]int(nil), prompts[1]...), tokens[1]),
	}
	const genLen = 70 // past the 64-row page edge
	for step := 0; step < genLen; step++ {
		logits := m.DecodeStep(states, tokens)
		refs := ref.DecodeFull(seqs, memory, memOff)
		for i := range seqs {
			got := logits.RowSpan(i, i+1)
			want := refs[i].RowSpan(refs[i].Rows-1, refs[i].Rows)
			if !mat.Equal(got, want, 0) {
				t.Fatalf("step %d seq %d: logits diverged after cache growth", step, i)
			}
		}
		for i := range seqs {
			tokens[i] = logits.ArgmaxRow(i)
			seqs[i] = append(seqs[i], tokens[i])
		}
	}
}

// TestDecodeTruncateReplay pins the rollback primitive: truncating a
// state and replaying the same tokens reproduces the same logits.
func TestDecodeTruncateReplay(t *testing.T) {
	prompts := raggedSeqs(decodeCfg.Vocab, []int{5}, 29)
	m := newDecodeModel(t, true)
	states := []*transformer.DecodeState{m.NewDecodeState()}
	outs := m.Prefill(states, prompts)
	tok := greedyRow(outs[0])

	var fed []int
	var want []*mat.Matrix
	for step := 0; step < 5; step++ {
		fed = append(fed, tok)
		logits := m.DecodeStep(states, []int{tok})
		want = append(want, logits.Clone())
		tok = logits.ArgmaxRow(0)
	}

	states[0].TruncateTo(len(prompts[0]))
	for step := 0; step < 5; step++ {
		logits := m.DecodeStep(states, []int{fed[step]})
		if !mat.Equal(logits, want[step], 0) {
			t.Fatalf("replayed step %d differs after TruncateTo", step)
		}
	}
}

// TestDecodeStepAllocationFree is the steady-state allocation contract:
// with buffer reuse on, a fused decode step allocates nothing (the step is truncated away after each run so the
// measured state never grows past its reservation).
func TestDecodeStepAllocationFree(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		decodeStepAllocationFree(t, newDecodeModel(t, true), raggedSeqs(decodeCfg.Vocab, []int{6, 3, 5, 4, 6, 2, 7, 5}, 31))
	})
	// every region fanned out: fork bodies, the lane block and each span's
	// score row are borrowed, on the helpers too
	t.Run("forked", func(t *testing.T) {
		testutil.Procs(t, 4)
		before := mat.ForkStats().Regions
		decodeStepAllocationFree(t, newWideDecodeModel(t), raggedSeqs(wideCfg.Vocab, widePrompts, 31))
		if mat.ForkStats().Regions == before {
			t.Fatal("no region of the wide model's steps fanned out")
		}
	})
}

func decodeStepAllocationFree(t *testing.T, m *transformer.LMModel, prompts [][]int) {
	states := make([]*transformer.DecodeState, len(prompts))
	tokens := make([]int, len(prompts))
	for i := range states {
		states[i] = m.NewDecodeState()
	}
	outs := m.Prefill(states, prompts)
	for i := range tokens {
		tokens[i] = greedyRow(outs[i])
	}
	// warm step settles every reusable buffer at the decode shape
	m.DecodeStep(states, tokens)
	for _, st := range states {
		st.TruncateTo(st.Pos() - 1)
	}
	allocs := testutil.AllocsPerRun(100, func() {
		m.DecodeStep(states, tokens)
		for _, st := range states {
			st.TruncateTo(st.Pos() - 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeStep allocates %.1f times per step, want 0", allocs)
	}
}

// TestDecodeRequiresDecoder: an encoder-only model has no incremental
// decode path (its logits depend bidirectionally on the whole
// sequence), and must say so loudly.
func TestDecodeRequiresDecoder(t *testing.T) {
	cfg := decodeCfg
	cfg.DecLayers = 0
	m := transformer.NewLMModel(cfg, rand.New(rand.NewSource(3)))
	defer func() {
		if recover() == nil {
			t.Fatal("NewDecodeState on an encoder-only model did not panic")
		}
	}()
	m.NewDecodeState()
}

// TestPositionalEncodingCached pins the memoized position table: same
// shape returns the same shared instance, different shapes do not, and
// the cached values are the sinusoid definition.
func TestPositionalEncodingCached(t *testing.T) {
	a := transformer.PositionalEncoding(9, 6)
	b := transformer.PositionalEncoding(9, 6)
	if a != b {
		t.Fatal("PositionalEncoding(9,6) returned distinct instances")
	}
	if c := transformer.PositionalEncoding(10, 6); c == a {
		t.Fatal("different seqLen shares a table")
	}
	// spot-check the definition: pos 0 is sin(0)=0 / cos(0)=1 interleaved
	for j := 0; j < 6; j++ {
		want := 0.0
		if j%2 == 1 {
			want = 1.0
		}
		if got := a.At(0, j); got != want {
			t.Fatalf("pe[0][%d] = %g, want %g", j, got, want)
		}
	}
}

// wideCfg is a decode topology wide enough that every region of a step
// over widePrompts — the pattern products, the cached attentions, GELU,
// the packed logits — reaches the fork threshold.
var (
	wideCfg     = transformer.Config{Vocab: 64, Dim: 128, Heads: 4, FFHidden: 512, EncLayers: 1, DecLayers: 2, SeqLen: 64}
	widePrompts = []int{18, 28, 40, 22, 50, 14, 32, 26}
)

// newWideDecodeModel builds the wideCfg model as the engine serves it:
// buffer reuse on, pattern kernels on the prunable linears and one that
// keeps every weight on the output projection.
func newWideDecodeModel(t testing.TB) *transformer.LMModel {
	t.Helper()
	m := transformer.NewLMModel(wideCfg, rand.New(rand.NewSource(43)))
	m.SetBufferReuse(true)
	installSparseKernels(t, m, 47)
	proj, err := kernel.Build("pattern", m.Proj.W.Value, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.Proj.SetKernel(proj)
	return m
}

// TestDecodeStepForkMatchesInline: a decode step is one lane block, so
// its products split by column partition, its cached attention by
// sequence and its GELU by row across the mat.Fork helpers. Steps and a
// ragged chunk replay over ragged caches, on a model wide enough for
// every one of those regions to fan out, give at GOMAXPROCS 4 the logits
// and the cached K/V rows of GOMAXPROCS 1, bit for bit.
func TestDecodeStepForkMatchesInline(t *testing.T) {
	prompts := raggedSeqs(wideCfg.Vocab, widePrompts, 41)
	chunkLens := []int{3, 1, 4, 2, 1, 5, 2, 3}
	const steps = 4
	type result struct {
		logits  []*mat.Matrix
		states  []*transformer.DecodeState
		regions int64
	}
	run := func(procs int) result {
		testutil.Procs(t, procs)
		m := newWideDecodeModel(t)
		states, outs := prefillStates(m, prompts)
		tokens := make([]int, len(prompts))
		for i := range tokens {
			tokens[i] = greedyRow(outs[i])
		}
		var res result
		before := mat.ForkStats().Regions
		for s := 0; s < steps; s++ {
			logits := m.DecodeStep(states, tokens)
			res.logits = append(res.logits, logits.Clone())
			for i := range tokens {
				tokens[i] = logits.ArgmaxRow(i)
			}
		}
		chunks := make([][]int, len(prompts))
		for i := range chunks {
			chunks[i] = chunkTokens(i, chunkLens[i])
		}
		for _, logits := range m.DecodeChunk(states, chunks) {
			res.logits = append(res.logits, logits.Clone())
		}
		res.regions = mat.ForkStats().Regions - before
		res.states = states
		return res
	}
	want, got := run(1), run(4)
	// per decoder layer: six 128-wide projections, two FFN products, two
	// cached attentions and one GELU; and the logits
	if perPass := int64(2*11 + 1); want.regions != 0 || got.regions < (steps+1)*perPass {
		t.Fatalf("%d regions fanned out at GOMAXPROCS 1 and %d at 4; want 0 and at least %d", want.regions, got.regions, (steps+1)*perPass)
	}
	for i := range want.logits {
		if !mat.Equal(got.logits[i], want.logits[i], 0) {
			t.Fatalf("logits %d (steps, then one chunk per sequence) differ from the inline run", i)
		}
	}
	for i := range prompts {
		if !got.states[i].Equal(want.states[i]) {
			t.Fatalf("sequence %d: cached K/V rows differ from the inline run", i)
		}
	}
}
