package transformer_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rt3/internal/mat"
	"rt3/internal/nn"
	"rt3/internal/transformer"
)

// TestAttentionNumericalStability feeds extreme activations through
// attention; outputs must stay finite (the softmax path is the risk).
func TestAttentionNumericalStability(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	a := transformer.NewMultiHeadAttention("a", 8, 2, rng)
	x := mat.New(4, 8)
	x.Fill(1e6)
	y := attendOne(a, x, x, false)
	for _, v := range y.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite attention output %g", v)
		}
	}
}

// TestCrossAttentionShapes verifies decoder-style attention over a
// memory of different length.
func TestCrossAttentionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := transformer.NewMultiHeadAttention("a", 8, 2, rng)
	q := mat.New(3, 8)
	q.Randomize(rng, 1)
	kv := mat.New(7, 8)
	kv.Randomize(rng, 1)
	y := attendOne(a, q, kv, false)
	if y.Rows != 3 || y.Cols != 8 {
		t.Fatalf("cross-attention output %dx%d", y.Rows, y.Cols)
	}
	dy := mat.New(3, 8)
	dy.Randomize(rng, 1)
	dq, dkv := a.Backward(dy)
	if dq.Rows != 3 || dkv.Rows != 7 {
		t.Fatalf("gradient shapes %d/%d", dq.Rows, dkv.Rows)
	}
}

// TestLMDeterministicForward: identical inputs yield identical logits.
func TestLMDeterministicForward(t *testing.T) {
	cfg := transformer.Config{Vocab: 9, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 1, DecLayers: 1, SeqLen: 5}
	m := transformer.NewLMModel(cfg, rand.New(rand.NewSource(32)))
	ids := []int{1, 2, 3, 4, 5}
	a := m.Forward(ids).Clone()
	b := m.Forward(ids)
	if !mat.Equal(a, b, 0) {
		t.Fatal("forward is not deterministic")
	}
}

// TestLMModelWithoutDecoder covers the encoder-only degenerate config.
func TestLMModelWithoutDecoder(t *testing.T) {
	cfg := transformer.Config{Vocab: 9, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 2, DecLayers: 0, SeqLen: 4}
	m := transformer.NewLMModel(cfg, rand.New(rand.NewSource(33)))
	ids := []int{1, 2, 3, 4}
	targets := []int{2, 3, 4, 5}
	loss1, grad := m.Loss(ids, targets)
	m.Backward(grad)
	opt := nn.NewAdam(0.01)
	nn.ClipGrads(m.Params(), 5)
	opt.Step(m.Params())
	loss2, _ := m.Loss(ids, targets)
	if !(loss2 < loss1) {
		t.Fatalf("encoder-only LM did not improve: %g -> %g", loss1, loss2)
	}
}

// TestMaskedModelOutputsIgnorePrunedWeights: zeroing a weight via mask
// must equal zeroing it by hand.
func TestMaskedModelOutputsIgnorePrunedWeights(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := transformer.Config{Vocab: 7, Dim: 4, Heads: 1, FFHidden: 8, EncLayers: 1, DecLayers: 0, SeqLen: 3}
		m := transformer.NewLMModel(cfg, rng)
		ids := []int{1, 2, 3}
		// pick one prunable weight and a random position
		var target *nn.Parameter
		for _, p := range m.Params() {
			if p.Name == "enc.0.attn.wq.W" {
				target = p
			}
		}
		if target == nil {
			return false
		}
		i := rng.Intn(len(target.Value.Data))
		mask := mat.New(target.Value.Rows, target.Value.Cols)
		mask.Fill(1)
		mask.Data[i] = 0

		manual := target.Value.Clone()
		manual.Data[i] = 0
		target.SetMask(mask)
		viaMask := m.Forward(ids).Clone()
		target.Mask = nil
		target.Value.CopyFrom(manual)
		viaHand := m.Forward(ids)
		return mat.Equal(viaMask, viaHand, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestGradAccumulationLinearity: two backward passes accumulate exactly
// the sum of the individual gradients.
func TestGradAccumulationLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	l := nn.NewLinear("l", 3, 2, rng)
	x1 := mat.New(1, 3)
	x1.Randomize(rng, 1)
	x2 := mat.New(1, 3)
	x2.Randomize(rng, 1)

	run := func(x *mat.Matrix) *mat.Matrix {
		nn.ZeroGrads(l.Params())
		logits := l.Forward(x)
		_, grad := nn.SoftmaxCrossEntropy(logits, []int{0})
		l.Backward(grad)
		return l.W.Grad.Clone()
	}
	g1 := run(x1)
	g2 := run(x2)
	nn.ZeroGrads(l.Params())
	for _, x := range []*mat.Matrix{x1, x2} {
		logits := l.Forward(x)
		_, grad := nn.SoftmaxCrossEntropy(logits, []int{0})
		l.Backward(grad)
	}
	sum := g1.Clone()
	sum.Add(g2)
	if !mat.Equal(l.W.Grad, sum, 1e-12) {
		t.Fatal("gradient accumulation is not additive")
	}
}
