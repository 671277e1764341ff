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
	// a smaller batch re-slices the scratch; only its probability blocks
	// (the backward cache, shape-matched) are new
	a.ForwardBatch(small, small, offSmall, offSmall, true)
	if allocs := testing.AllocsPerRun(20, func() {
		a.ForwardBatch(small, small, offSmall, offSmall, true)
	}); allocs != 0 {
		t.Fatalf("%v allocs per steady-state ForwardBatch after a shape change, want 0", allocs)
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
