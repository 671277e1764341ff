package transformer_test

import (
	"testing"

	"rt3/internal/mat"
	"rt3/internal/transformer"
)

// chunkTokens builds a deterministic per-sequence token run to feed
// through the decode paths (values only need to be in-vocab; bit
// identity must hold for any fed tokens, not just greedy ones).
func chunkTokens(seq, n int) []int {
	out := make([]int, n)
	for j := range out {
		out[j] = (seq*13 + j*7 + 5) % decodeCfg.Vocab
	}
	return out
}

// prefillStates builds and prefills one state per prompt.
func prefillStates(m *transformer.LMModel, prompts [][]int) ([]*transformer.DecodeState, []*mat.Matrix) {
	states := newStates(m, len(prompts))
	return states, m.Prefill(states, prompts)
}

// TestDecodeChunkBitIdenticalToSteps pins the fused verifier primitive:
// one DecodeChunk over ragged multi-token runs produces, row for row,
// exactly the logits of the equivalent sequential DecodeStep calls —
// with each reference sequence stepped alone, so the chunk's cross-
// sequence packing is also shown not to leak between sequences.
func TestDecodeChunkBitIdenticalToSteps(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		name := "fresh"
		if reuse {
			name = "reuse"
		}
		t.Run(name, func(t *testing.T) {
			prompts := raggedSeqs(decodeCfg.Vocab, []int{5, 1, 8, 3}, 37)
			chunkLens := []int{3, 1, 4, 2} // ragged chunks
			m := newDecodeModel(t, reuse)
			ref := newDecodeModel(t, reuse)

			// reference: each sequence stepped alone, one token at a time
			refStates, _ := prefillStates(ref, prompts)
			want := make([][]*mat.Matrix, len(prompts))
			for i, st := range refStates {
				for _, tok := range chunkTokens(i, chunkLens[i]) {
					logits := ref.DecodeStep([]*transformer.DecodeState{st}, []int{tok})
					want[i] = append(want[i], logits.Clone())
				}
			}

			states, _ := prefillStates(m, prompts)
			chunks := make([][]int, len(prompts))
			for i := range chunks {
				chunks[i] = chunkTokens(i, chunkLens[i])
			}
			outs := m.DecodeChunk(states, chunks)
			for i := range prompts {
				if outs[i].Rows != chunkLens[i] {
					t.Fatalf("seq %d: chunk returned %d rows, want %d", i, outs[i].Rows, chunkLens[i])
				}
				for j := 0; j < chunkLens[i]; j++ {
					if !mat.Equal(outs[i].RowSpan(j, j+1), want[i][j], 0) {
						t.Fatalf("seq %d row %d: chunk logits differ from sequential steps", i, j)
					}
				}
				wantPos := len(prompts[i]) + chunkLens[i]
				if states[i].Pos() != wantPos {
					t.Fatalf("seq %d: pos %d after chunk, want %d", i, states[i].Pos(), wantPos)
				}
				if refStates[i].Pos() != wantPos {
					t.Fatalf("seq %d: reference pos %d, want %d", i, refStates[i].Pos(), wantPos)
				}
			}

			// the states are interchangeable afterwards: one more fused step
			// on both sets must agree bitwise
			tokens := make([]int, len(prompts))
			for i := range tokens {
				tokens[i] = outs[i].ArgmaxRow(outs[i].Rows - 1)
			}
			got := m.DecodeStep(states, tokens).Clone()
			wantNext := ref.DecodeStep(refStates, tokens)
			if !mat.Equal(got, wantNext, 0) {
				t.Fatal("post-chunk DecodeStep differs from post-steps DecodeStep")
			}
		})
	}
}

// TestDecodeTruncateToZeroChunkMatchesPrefill fills the TruncateTo(0)
// coverage gap: rewinding a state all the way to position 0 keeps the
// frozen cross-attention memory, and replaying the whole prompt through
// DecodeChunk reproduces the prefill's decoder computation bit for bit —
// the last row's logits (the one row a prefill returns), cache rows, and
// continued decoding all match a fresh prefill.
func TestDecodeTruncateToZeroChunkMatchesPrefill(t *testing.T) {
	prompts := raggedSeqs(decodeCfg.Vocab, []int{6, 4}, 41)
	m := newDecodeModel(t, true)
	states, outs := prefillStates(m, prompts)
	want := []*mat.Matrix{outs[0].Clone(), outs[1].Clone()}
	wantStates := []*transformer.DecodeState{states[0].Snapshot(states[0].Pos()), states[1].Snapshot(states[1].Pos())}

	for _, st := range states {
		st.TruncateTo(0)
		if st.Pos() != 0 {
			t.Fatalf("pos %d after TruncateTo(0)", st.Pos())
		}
	}
	got := m.DecodeChunk(states, prompts)
	for i := range prompts {
		if !mat.Equal(lastRow(got[i]), want[i], 0) {
			t.Fatalf("seq %d: chunk replay from pos 0 differs from prefill logits", i)
		}
		if !states[i].Equal(wantStates[i]) {
			t.Fatalf("seq %d: rebuilt self K/V rows differ from prefill", i)
		}
	}

	// continued decoding matches a fresh prefill token-for-token
	fresh, freshOuts := prefillStates(m, prompts)
	tokens := []int{greedyRow(freshOuts[0]), greedyRow(freshOuts[1])}
	for step := 0; step < 5; step++ {
		a := m.DecodeStep(states, tokens).Clone()
		b := m.DecodeStep(fresh, tokens)
		if !mat.Equal(a, b, 0) {
			t.Fatalf("step %d: post-rewind decode diverged from fresh prefill", step)
		}
		tokens[0], tokens[1] = b.ArgmaxRow(0), b.ArgmaxRow(1)
	}
}

// TestDecodeTruncateAcrossGrowBoundary fills the second TruncateTo gap:
// a cache that crossed mat.GrowFloats doubling boundaries mid-generation
// is rewound back below the boundary and replayed; every replayed step
// must match both the recorded logits and a fresh prefill's replay.
func TestDecodeTruncateAcrossGrowBoundary(t *testing.T) {
	prompts := raggedSeqs(decodeCfg.Vocab, []int{3}, 43)
	m := newDecodeModel(t, true)
	states, outs := prefillStates(m, prompts)
	states[0].Reserve(1) // no-op (prefill already holds 3 rows): growth happens mid-decode

	fed := []int{greedyRow(outs[0])}
	var want []*mat.Matrix
	const genLen = 24 // several doublings past the 3-row prefill
	for step := 0; step < genLen; step++ {
		logits := m.DecodeStep(states, []int{fed[len(fed)-1]})
		want = append(want, logits.Clone())
		fed = append(fed, logits.ArgmaxRow(0))
	}

	// rewind to just past the prompt — below every doubling boundary the
	// generation crossed — and replay
	rewind := len(prompts[0]) + 1
	states[0].TruncateTo(rewind)

	fresh, _ := prefillStates(m, prompts)
	freshLogits := m.DecodeStep(fresh, []int{fed[0]})
	if freshLogits.ArgmaxRow(0) != fed[1] {
		t.Fatal("fresh prefill disagrees with recorded stream")
	}
	for step := 1; step < genLen; step++ {
		a := m.DecodeStep(states, []int{fed[step]}).Clone()
		b := m.DecodeStep(fresh, []int{fed[step]})
		if !mat.Equal(a, want[step], 0) {
			t.Fatalf("replayed step %d differs from recorded logits", step)
		}
		if !mat.Equal(a, b, 0) {
			t.Fatalf("replayed step %d differs from fresh prefill replay", step)
		}
	}
}

// TestDecodeTruncateThenRecycle fills the third TruncateTo gap: a state
// rewound mid-generation and then recycled (prefilled onto a different
// prompt, the serving free-list's exact reuse path) behaves bit-
// identically to a never-truncated fresh state.
func TestDecodeTruncateThenRecycle(t *testing.T) {
	m := newDecodeModel(t, true)
	first := raggedSeqs(decodeCfg.Vocab, []int{7}, 47)
	states, outs := prefillStates(m, first)
	tok := greedyRow(outs[0])
	for step := 0; step < 8; step++ {
		tok = m.DecodeStep(states, []int{tok}).ArgmaxRow(0)
	}
	states[0].TruncateTo(2) // mid-generation rollback, then recycle

	second := raggedSeqs(decodeCfg.Vocab, []int{5}, 53)
	fresh, freshOuts := prefillStates(m, second)
	gotOuts := m.Prefill(states, second)
	if !mat.Equal(gotOuts[0], freshOuts[0], 0) {
		t.Fatal("recycled-after-truncate prefill differs from fresh state")
	}
	tok = greedyRow(gotOuts[0])
	for step := 0; step < 6; step++ {
		a := m.DecodeStep(states, []int{tok}).Clone()
		b := m.DecodeStep(fresh, []int{tok})
		if !mat.Equal(a, b, 0) {
			t.Fatalf("step %d: recycled state diverged from fresh", step)
		}
		tok = b.ArgmaxRow(0)
	}
}

// TestKVSpanExportLoadRoundTrip pins the prefix-cache storage contract:
// a snapshot of a prefilled state copied into another state rebuilds a
// state that decodes bit-identically to the original.
func TestKVSpanExportLoadRoundTrip(t *testing.T) {
	prompts := raggedSeqs(decodeCfg.Vocab, []int{8}, 59)
	m := newDecodeModel(t, true)
	states, outs := prefillStates(m, prompts)
	pos := states[0].Pos()
	whole := states[0].Snapshot(pos)

	loaded := m.NewDecodeState()
	loaded.CopyFrom(whole)
	if loaded.Pos() != pos {
		t.Fatalf("loaded pos %d, want %d", loaded.Pos(), pos)
	}
	if !loaded.Equal(whole) || !loaded.Equal(states[0]) {
		t.Fatal("loaded rows differ from the snapshot")
	}

	tok := greedyRow(outs[0])
	tokens := []int{tok, tok}
	both := []*transformer.DecodeState{states[0], loaded}
	for step := 0; step < 6; step++ {
		logits := m.DecodeStep(both, tokens)
		if !mat.Equal(logits.RowSpan(0, 1), logits.RowSpan(1, 2), 0) {
			t.Fatalf("step %d: loaded state diverged from original", step)
		}
		tokens[0] = logits.ArgmaxRow(0)
		tokens[1] = tokens[0]
	}
}
