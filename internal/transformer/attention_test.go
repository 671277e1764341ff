package transformer_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/testutil"
	"rt3/internal/transformer"
)

// offsetsOf turns sequence lengths into a packed-batch offsets table.
func offsetsOf(lengths []int) []int {
	off := []int{0}
	for _, l := range lengths {
		off = append(off, off[len(off)-1]+l)
	}
	return off
}

// headRows copies head h (width hd) of rows [r0, r1) of x into a fresh
// (r1-r0) x hd matrix.
func headRows(x *mat.Matrix, r0, r1, h, hd int) *mat.Matrix {
	out := mat.New(r1-r0, hd)
	for r := r0; r < r1; r++ {
		copy(out.Row(r-r0), x.Row(r)[h*hd:(h+1)*hd])
	}
	return out
}

// TestForwardBatchMatchesNaiveAttention holds the batched path to
// something other than itself: over ragged self-, causal and
// cross-attention batches, ForwardBatch must equal — bit for bit — the
// four projections composed with the naive scalar attention reference
// per (sequence, head, query row). Head dims 5 and 20 put a scalar tail
// behind zero and one full value block.
func TestForwardBatchMatchesNaiveAttention(t *testing.T) {
	const dim = 20
	qLens := []int{5, 1, 17, 3, 33}
	crossLens := []int{2, 9, 1, 40, 16}
	for _, heads := range []int{1, 4} {
		for _, mode := range []string{"self", "causal", "cross"} {
			rng := rand.New(rand.NewSource(int64(151 + heads)))
			a := transformer.NewMultiHeadAttention("attn", dim, heads, rng)
			hd := dim / heads
			qOff := offsetsOf(qLens)
			x := mat.New(qOff[len(qOff)-1], dim)
			x.Randomize(rng, 1)
			mem, kvOff := x, qOff
			if mode == "cross" {
				kvOff = offsetsOf(crossLens)
				mem = mat.New(kvOff[len(kvOff)-1], dim)
				mem.Randomize(rng, 1)
			}
			got := a.ForwardBatch(x, mem, qOff, kvOff, mode == "causal").Clone()

			q, k, v := a.WQ.Forward(x), a.WK.Forward(mem), a.WV.Forward(mem)
			concat := mat.New(x.Rows, dim)
			scale := 1 / math.Sqrt(float64(hd))
			for s := range qLens {
				for h := 0; h < heads; h++ {
					for i := qOff[s]; i < qOff[s+1]; i++ {
						k1 := kvOff[s+1]
						if mode == "causal" {
							k1 = kvOff[s] + (i - qOff[s]) + 1
						}
						testutil.NaiveAttend(concat.Row(i)[h*hd:(h+1)*hd], q.Row(i)[h*hd:(h+1)*hd],
							headRows(k, kvOff[s], k1, h, hd), headRows(v, kvOff[s], k1, h, hd), scale)
					}
				}
			}
			if want := a.WO.Forward(concat); !mat.Equal(got, want, 0) {
				t.Fatalf("%d heads, %s: ForwardBatch differs from the naive attention reference", heads, mode)
			}
		}
	}
}

// TestForwardBatchForkMatchesInline: a batch large enough to split by
// head across the mat.Fork helpers gives the bits of its inline run
// (GOMAXPROCS 1) — the output and, where the forward keeps them (buffer
// reuse off), through Backward every probability block — for causal
// self- and ragged cross-attention, with 1, 3 and 4 heads, with and
// without buffer reuse; one head, or a batch under the fork threshold,
// stays on the calling goroutine.
func TestForwardBatchForkMatchesInline(t *testing.T) {
	const dim = 48
	for _, heads := range []int{1, 3, 4} {
		for _, causal := range []bool{true, false} {
			for _, size := range []struct {
				qLens, kvLens []int
				above         bool // of the fork threshold, at 3 and 4 heads
			}{
				{[]int{2, 1, 3}, []int{2, 4, 5}, false},
				{[]int{70, 33, 1, 90, 0, 61}, []int{64, 17, 40, 75, 3, 96}, true},
			} {
				rng := rand.New(rand.NewSource(int64(155 + heads)))
				a := transformer.NewMultiHeadAttention("attn", dim, heads, rng)
				qOff := offsetsOf(size.qLens)
				x := mat.New(qOff[len(qOff)-1], dim)
				x.Randomize(rng, 1)
				mem, kvOff := x, qOff
				if !causal {
					kvOff = offsetsOf(size.kvLens)
					mem = mat.New(kvOff[len(kvOff)-1], dim)
					mem.Randomize(rng, 1)
				}
				dy := mat.New(x.Rows, dim)
				dy.Randomize(rng, 1)
				what := fmt.Sprintf("%d heads, causal %v, %d rows", heads, causal, x.Rows)
				for _, reuse := range []bool{false, true} {
					a.SetBufferReuse(reuse)
					testutil.Procs(t, 1)
					want := a.ForwardBatch(x, mem, qOff, kvOff, causal).Clone()
					var wantQ, wantKV *mat.Matrix
					if !reuse {
						wantQ, wantKV = a.Backward(dy)
					}
					testutil.Procs(t, 4)
					before := mat.ForkStats().Regions
					got := a.ForwardBatch(x, mem, qOff, kvOff, causal)
					after := mat.ForkStats().Regions
					if !mat.Equal(got, want, 0) {
						t.Fatalf("%s, reuse %v: forked ForwardBatch differs from inline", what, reuse)
					}
					if !reuse {
						if gotQ, gotKV := a.Backward(dy); !mat.Equal(gotQ, wantQ, 0) || !mat.Equal(gotKV, wantKV, 0) {
							t.Fatalf("%s: probability blocks of the forked pass differ from inline", what)
						}
					}
					// the three projections stay under the threshold at
					// these sizes: any region is the attention itself
					if fanned := after > before; fanned != (size.above && heads > 1) {
						t.Errorf("%s: fanned out = %v", what, fanned)
					}
				}
			}
		}
	}
}

// TestForwardBatchRejectsKeylessSequence: a sequence with query rows and
// no key rows has nothing to normalise over; it is rejected by name
// instead of dying on an index inside the softmax.
func TestForwardBatchRejectsKeylessSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	a := transformer.NewMultiHeadAttention("attn", 8, 2, rng)
	q, kv := mat.New(3, 8), mat.New(2, 8)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "transformer:") || !strings.Contains(msg, "sequence 1") {
			t.Fatalf("keyless sequence 1: got panic %q", msg)
		}
	}()
	a.ForwardBatch(q, kv, []int{0, 1, 3}, []int{0, 2, 2}, false)
}

// TestForwardBatchSteadyStateZeroAllocs: with buffer reuse on, a
// steady-state batch allocates nothing on the attention path — no
// per-sequence view headers, no scratch regrown because the key-row
// count changed.
func TestForwardBatchSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	a := transformer.NewMultiHeadAttention("attn", 16, 4, rng)
	a.SetBufferReuse(true)
	big, small := mat.New(40, 16), mat.New(24, 16)
	big.Randomize(rng, 1)
	small.Randomize(rng, 1)
	offBig, offSmall := []int{0, 7, 40}, []int{0, 7, 24}
	a.ForwardBatch(big, big, offBig, offBig, true)
	if allocs := testing.AllocsPerRun(20, func() {
		a.ForwardBatch(big, big, offBig, offBig, true)
	}); allocs != 0 {
		t.Fatalf("%v allocs per steady-state ForwardBatch, want 0", allocs)
	}
	// a smaller batch re-slices the scratch, and a reusing forward keeps
	// no probability blocks to reshape
	a.ForwardBatch(small, small, offSmall, offSmall, true)
	if allocs := testing.AllocsPerRun(20, func() {
		a.ForwardBatch(small, small, offSmall, offSmall, true)
	}); allocs != 0 {
		t.Fatalf("%v allocs per steady-state ForwardBatch after a shape change, want 0", allocs)
	}

	// a batch whose heads fan out: each span of heads borrows its key
	// scratch, on the helpers too
	testutil.Procs(t, 4)
	wide := mat.New(400, 16)
	wide.Randomize(rng, 1)
	offWide := []int{0, 150, 400}
	before := mat.ForkStats().Regions
	allocs := testutil.AllocsPerRun(20, func() { a.ForwardBatch(wide, wide, offWide, offWide, true) })
	if after := mat.ForkStats().Regions; after-before < 20 {
		t.Fatalf("%d of 21 ForwardBatch calls over 400 rows fanned out", after-before)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per fanned-out ForwardBatch, want 0", allocs)
	}
}

// BenchmarkAttentionPrefill is one attention block's ForwardBatch over a
// prefill-shaped batch (4 sequences of 128 rows, dim 192, 4 heads),
// causal and bidirectional, projections included.
func BenchmarkAttentionPrefill(b *testing.B) {
	rng := rand.New(rand.NewSource(154))
	a := transformer.NewMultiHeadAttention("attn", 192, 4, rng)
	a.SetBufferReuse(true)
	off := offsetsOf([]int{128, 128, 128, 128})
	x := mat.New(off[len(off)-1], 192)
	x.Randomize(rng, 1)
	for _, causal := range []bool{true, false} {
		name := "bidirectional"
		if causal {
			name = "causal"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.ForwardBatch(x, x, off, off, causal)
			}
		})
	}
}

// BenchmarkPrefill is the admission pass at the reference shape (dim 192,
// ffn 768, 2 + 2 layers, pattern kernels at 50% sparsity): 4 prompts of
// 128 tokens prefilled into reserved states, buffer reuse on, reported in
// packed prompt rows per second.
func BenchmarkPrefill(b *testing.B) {
	cfg := transformer.Config{Vocab: 512, Dim: 192, Heads: 4, FFHidden: 768, EncLayers: 2, DecLayers: 2, SeqLen: 160}
	m := transformer.NewLMModel(cfg, rand.New(rand.NewSource(156)))
	installSparseKernels(b, m, 158)
	m.SetBufferReuse(true)
	prompts := raggedSeqs(cfg.Vocab, []int{128, 128, 128, 128}, 157)
	states := newStates(m, len(prompts))
	for _, st := range states {
		st.Reserve(cfg.SeqLen)
	}
	m.Prefill(states, prompts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Prefill(states, prompts)
	}
	b.ReportMetric(float64(b.N*4*128)/b.Elapsed().Seconds(), "rows/s")
}
