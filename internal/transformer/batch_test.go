package transformer_test

import (
	"math/rand"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/nn"
	"rt3/internal/pattern"
	"rt3/internal/sparse"
	"rt3/internal/transformer"
)

// raggedSeqs builds a batch of sequences with deliberately uneven
// lengths (including length 1).
func raggedSeqs(vocab int, lengths []int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, len(lengths))
	for i, l := range lengths {
		seq := make([]int, l)
		for j := range seq {
			seq[j] = rng.Intn(vocab)
		}
		out[i] = seq
	}
	return out
}

var raggedLengths = []int{5, 1, 9, 3, 7, 2}

// TestLMForwardBatchBitIdenticalToSequential is the core packed-batch
// invariant on the encoder-decoder LM: a ragged batch fused into one
// packed forward (causal self-attention and cross-attention per
// sequence) must equal running each sequence through Forward alone, bit
// for bit — block-diagonal masking means no sequence leaks into
// another.
func TestLMForwardBatchBitIdenticalToSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	m := transformer.NewLMModel(transformer.Config{
		Vocab: 30, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, DecLayers: 1, SeqLen: 12,
	}, rng)
	seqs := raggedSeqs(30, raggedLengths, 102)

	// sequential references on a clone (so layer caches cannot help)
	ref := m.Clone()
	wants := make([]*mat.Matrix, len(seqs))
	for i, ids := range seqs {
		wants[i] = ref.Forward(ids).Clone()
	}
	outs := m.ForwardBatch(seqs)
	if len(outs) != len(seqs) {
		t.Fatalf("%d outputs for %d sequences", len(outs), len(seqs))
	}
	for i, got := range outs {
		if got.Rows != len(seqs[i]) || got.Cols != 30 {
			t.Fatalf("sequence %d: output %dx%d, want %dx30", i, got.Rows, got.Cols, len(seqs[i]))
		}
		if !mat.Equal(got, wants[i], 0) {
			t.Fatalf("sequence %d (len %d): batched logits differ from sequential", i, len(seqs[i]))
		}
	}
}

// TestLMForwardBatchEncoderOnly covers the no-decoder topology (the
// packed memory path is the head input).
func TestLMForwardBatchEncoderOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	m := transformer.NewLMModel(transformer.Config{
		Vocab: 20, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 2, DecLayers: 0, SeqLen: 10,
	}, rng)
	seqs := raggedSeqs(20, []int{4, 6, 2}, 104)
	ref := m.Clone()
	outs := m.ForwardBatch(seqs)
	for i, ids := range seqs {
		if !mat.Equal(outs[i], ref.Forward(ids), 0) {
			t.Fatalf("sequence %d: batched differs from sequential", i)
		}
	}
}

// TestClassifierForwardBatchBitIdenticalToSequential checks the pooled
// classifier head over a ragged packed batch, with and without buffer
// reuse (the serving configuration).
func TestClassifierForwardBatchBitIdenticalToSequential(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		rng := rand.New(rand.NewSource(105))
		c := transformer.NewClassifier(transformer.Config{
			Vocab: 24, Dim: 16, Heads: 4, FFHidden: 32, EncLayers: 2, SeqLen: 10, Classes: 3,
		}, rng)
		c.SetBufferReuse(reuse)
		seqs := raggedSeqs(24, raggedLengths, 106)
		ref := c.Clone()
		wants := make([]*mat.Matrix, len(seqs))
		for i, ids := range seqs {
			wants[i] = ref.Forward(ids).Clone()
		}
		outs := c.ForwardBatch(seqs)
		for i, got := range outs {
			if !mat.Equal(got, wants[i], 0) {
				t.Fatalf("reuse=%v sequence %d (len %d): batched output differs from sequential",
					reuse, i, len(seqs[i]))
			}
		}
		// repeat the batch: reused buffers must not corrupt a second pass
		again := c.ForwardBatch(seqs)
		for i := range again {
			if !mat.Equal(again[i], wants[i], 0) {
				t.Fatalf("reuse=%v sequence %d: second batched pass differs", reuse, i)
			}
		}
	}
}

// TestForwardShimMatchesBatch pins the shim contract: Forward(ids) is
// exactly ForwardBatch([][]int{ids})[0].
func TestForwardShimMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	c := transformer.NewClassifier(transformer.Config{
		Vocab: 24, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 1, SeqLen: 8, Classes: 2,
	}, rng)
	ids := raggedSeqs(24, []int{6}, 108)[0]
	a := c.Forward(ids).Clone()
	b := c.ForwardBatch([][]int{ids})[0]
	if !mat.Equal(a, b, 0) {
		t.Fatal("Forward shim differs from one-sequence ForwardBatch")
	}
}

// TestAttentionBatchNoCrossSequenceLeak feeds two batches that differ
// only in one sequence: the other sequence's output must be untouched —
// the direct probe that attention is block-diagonal.
func TestAttentionBatchNoCrossSequenceLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	a := transformer.NewMultiHeadAttention("attn", 8, 2, rng)
	x1 := mat.New(4, 8)
	x1.Randomize(rng, 1)
	x2 := mat.New(5, 8)
	x2.Randomize(rng, 1)
	x2b := mat.New(5, 8)
	x2b.Randomize(rng, 1)

	pack := func(a1, a2 *mat.Matrix) (*mat.Matrix, []int) {
		p := mat.New(a1.Rows+a2.Rows, 8)
		p.RowSpan(0, a1.Rows).CopyFrom(a1)
		p.RowSpan(a1.Rows, p.Rows).CopyFrom(a2)
		return p, []int{0, a1.Rows, p.Rows}
	}
	p1, off := pack(x1, x2)
	y1 := a.ForwardBatch(p1, p1, off, off, false).Clone()
	p2, _ := pack(x1, x2b)
	y2 := a.ForwardBatch(p2, p2, off, off, false)
	if !mat.Equal(y1.RowSpan(0, 4), y2.RowSpan(0, 4), 0) {
		t.Fatal("changing sequence 2 changed sequence 1's attention output: cross-sequence leak")
	}
	if mat.Equal(y1.RowSpan(4, 9), y2.RowSpan(4, 9), 1e-12) {
		t.Fatal("changing sequence 2 did not change its own output")
	}
}

// TestBatchedBackwardMatchesSequential verifies the generalized
// backward: gradients accumulated from one batched forward+backward
// must match the sum of per-sequence forward+backward passes.
func TestBatchedBackwardMatchesSequential(t *testing.T) {
	cfg := transformer.Config{Vocab: 18, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 1, DecLayers: 1, SeqLen: 8}
	rng := rand.New(rand.NewSource(111))
	m := transformer.NewLMModel(cfg, rng)
	ref := m.Clone()
	seqs := raggedSeqs(18, []int{4, 6, 3}, 112)

	// sequential: accumulate gradients one sequence at a time
	for _, ids := range seqs {
		logits := ref.Forward(ids)
		dl := mat.New(logits.Rows, logits.Cols)
		dl.Fill(0.1)
		ref.Backward(dl)
	}
	// batched: one packed forward + backward
	outs := m.ForwardBatch(seqs)
	rows := 0
	for _, o := range outs {
		rows += o.Rows
	}
	dl := mat.New(rows, cfg.Vocab)
	dl.Fill(0.1)
	m.Backward(dl)

	got, want := m.Params(), ref.Params()
	for i := range got {
		if !mat.Equal(got[i].Grad, want[i].Grad, 1e-9) {
			t.Fatalf("param %s: batched gradient differs from sequential accumulation", got[i].Name)
		}
	}
}

// TestClassifierBatchedBackward does the same for the pooled head.
func TestClassifierBatchedBackward(t *testing.T) {
	cfg := transformer.Config{Vocab: 18, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 2, SeqLen: 8, Classes: 3}
	rng := rand.New(rand.NewSource(113))
	c := transformer.NewClassifier(cfg, rng)
	ref := c.Clone()
	seqs := raggedSeqs(18, []int{5, 2, 7}, 114)

	for _, ids := range seqs {
		out := ref.Forward(ids)
		d := mat.New(out.Rows, out.Cols)
		d.Fill(0.25)
		ref.Backward(d)
	}
	c.ForwardBatch(seqs)
	d := mat.New(len(seqs), cfg.Classes)
	d.Fill(0.25)
	c.Backward(d)

	got, want := c.Params(), ref.Params()
	for i := range got {
		if !mat.Equal(got[i].Grad, want[i].Grad, 1e-9) {
			t.Fatalf("param %s: batched gradient differs from sequential accumulation", got[i].Name)
		}
	}
}

// TestForwardBatchRejectsEmpty pins the validation contract.
func TestForwardBatchRejectsEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	c := transformer.NewClassifier(transformer.Config{
		Vocab: 8, Dim: 4, Heads: 1, FFHidden: 8, EncLayers: 1, SeqLen: 4, Classes: 2,
	}, rng)
	for name, seqs := range map[string][][]int{
		"no sequences":   {},
		"empty sequence": {{1, 2}, {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			c.ForwardBatch(seqs)
		}()
	}
}

// TestCausalBatchRequiresMatchedSpans: per-sequence causal attention
// must reject ragged query/key pairings.
func TestCausalBatchRequiresMatchedSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	a := transformer.NewMultiHeadAttention("attn", 4, 1, rng)
	q := mat.New(5, 4)
	kv := mat.New(6, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for causal ragged spans")
		}
	}()
	a.ForwardBatch(q, kv, []int{0, 2, 5}, []int{0, 3, 6}, true)
}

// TestBatchedForwardWithPackedKernels runs the serving configuration at
// the model level: pattern kernels installed on every prunable linear,
// buffer reuse on, ragged batched forward vs sequential — bit-identical.
func TestBatchedForwardWithPackedKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	cfg := transformer.Config{Vocab: 24, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, SeqLen: 10, Classes: 3}
	c := transformer.NewClassifier(cfg, rng)
	ref := c.Clone()
	installSparseKernels(t, c, 118)
	installSparseKernels(t, ref, 118)
	c.SetBufferReuse(true)

	seqs := raggedSeqs(24, raggedLengths, 119)
	wants := make([]*mat.Matrix, len(seqs))
	for i, ids := range seqs {
		wants[i] = ref.Forward(ids).Clone()
	}
	outs := c.ForwardBatch(seqs)
	for i, got := range outs {
		if !mat.Equal(got, wants[i], 0) {
			t.Fatalf("sequence %d: packed-kernel batched forward differs from sequential", i)
		}
	}
}

// installSparseKernels installs a pattern kernel at 50% sparsity on every
// prunable linear (deterministic per seed), on both models identically.
func installSparseKernels(t testing.TB, m interface{ PrunableLinears() []*nn.Linear }, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, l := range m.PrunableLinears() {
		k, err := sparse.PackSet(l.W.Value, pattern.RandomSet(4, 0.5, 3, rng))
		if err != nil {
			t.Fatal(err)
		}
		l.SetKernel(k)
	}
}
