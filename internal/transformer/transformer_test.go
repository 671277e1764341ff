package transformer_test

import (
	"math"
	"math/rand"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/nn"
	"rt3/internal/testutil"
	"rt3/internal/transformer"
)

func TestPositionalEncodingShapeAndRange(t *testing.T) {
	pe := transformer.PositionalEncoding(10, 8)
	if pe.Rows != 10 || pe.Cols != 8 {
		t.Fatalf("shape %dx%d", pe.Rows, pe.Cols)
	}
	for _, v := range pe.Data {
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Fatalf("PE value %g out of [-1,1]", v)
		}
	}
	// position 0: sin(0)=0, cos(0)=1 alternating
	if pe.At(0, 0) != 0 || pe.At(0, 1) != 1 {
		t.Fatalf("PE row 0 wrong: %v", pe.Row(0))
	}
}

// attendOne runs a over one sequence: a packed batch of one.
func attendOne(a *transformer.MultiHeadAttention, q, kv *mat.Matrix, causal bool) *mat.Matrix {
	return a.ForwardBatch(q, kv, []int{0, q.Rows}, []int{0, kv.Rows}, causal)
}

func TestAttentionRowsSumToOneViaSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := transformer.NewMultiHeadAttention("a", 8, 2, rng)
	x := mat.New(4, 8)
	x.Randomize(rng, 1)
	y := attendOne(a, x, x, false)
	if y.Rows != 4 || y.Cols != 8 {
		t.Fatalf("attention output %dx%d", y.Rows, y.Cols)
	}
}

func TestAttentionCausalMaskZeroesFuture(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := transformer.NewMultiHeadAttention("a", 4, 1, rng)
	x := mat.New(3, 4)
	x.Randomize(rng, 1)
	// causal: output at position 0 must not change when later inputs do
	y1 := attendOne(a, x, x, true).Clone()
	x2 := x.Clone()
	x2.Set(2, 0, x2.At(2, 0)+5)
	y2 := attendOne(a, x2, x2, true)
	for j := 0; j < y1.Cols; j++ {
		if math.Abs(y1.At(0, j)-y2.At(0, j)) > 1e-9 {
			t.Fatalf("causal attention leaked future information at col %d", j)
		}
	}
	// ...but position 2 should change
	var diff float64
	for j := 0; j < y1.Cols; j++ {
		diff += math.Abs(y1.At(2, j) - y2.At(2, j))
	}
	if diff < 1e-9 {
		t.Fatal("position 2 unaffected by its own input change")
	}
}

func TestAttentionDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	transformer.NewMultiHeadAttention("a", 6, 4, rand.New(rand.NewSource(3)))
}

func TestSelfAttentionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := transformer.NewMultiHeadAttention("a", 4, 2, rng)
	head := nn.NewLinear("h", 4, 2, rng)
	x := mat.New(3, 4)
	x.Randomize(rng, 1)
	targets := []int{0, 1, 0}
	loss := func() float64 {
		y := attendOne(a, x, x, false)
		logits := head.Forward(y)
		v, grad := nn.SoftmaxCrossEntropy(logits, targets)
		dq, _ := a.Backward(head.Backward(grad))
		_ = dq
		return v
	}
	testutil.GradCheck(t, append(a.Params(), head.Params()...), loss, 1e-3)
}

func TestCausalAttentionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := transformer.NewMultiHeadAttention("a", 4, 1, rng)
	head := nn.NewLinear("h", 4, 2, rng)
	x := mat.New(3, 4)
	x.Randomize(rng, 1)
	loss := func() float64 {
		y := attendOne(a, x, x, true)
		logits := head.Forward(y)
		v, grad := nn.SoftmaxCrossEntropy(logits, []int{1, 0, 1})
		a.Backward(head.Backward(grad))
		return v
	}
	testutil.GradCheck(t, append(a.Params(), head.Params()...), loss, 1e-3)
}

func TestEncoderLayerGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	enc := transformer.NewEncoderLayer("e", 4, 2, 8, rng)
	head := nn.NewLinear("h", 4, 2, rng)
	x := mat.New(2, 4)
	x.Randomize(rng, 1)
	loss := func() float64 {
		y := enc.ForwardBatch(x, []int{0, x.Rows})
		logits := head.Forward(y)
		v, grad := nn.SoftmaxCrossEntropy(logits, []int{0, 1})
		enc.Backward(head.Backward(grad))
		return v
	}
	testutil.GradCheck(t, append(enc.Params(), head.Params()...), loss, 2e-3)
}

func TestDecoderLayerGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dec := transformer.NewDecoderLayer("d", 4, 2, 8, rng)
	head := nn.NewLinear("h", 4, 2, rng)
	x := mat.New(2, 4)
	x.Randomize(rng, 1)
	mem := mat.New(3, 4)
	mem.Randomize(rng, 1)
	loss := func() float64 {
		y := dec.ForwardBatch(x, mem, []int{0, x.Rows}, []int{0, mem.Rows})
		logits := head.Forward(y)
		v, grad := nn.SoftmaxCrossEntropy(logits, []int{0, 1})
		dec.Backward(head.Backward(grad))
		return v
	}
	testutil.GradCheck(t, append(dec.Params(), head.Params()...), loss, 2e-3)
}

func TestLMModelForwardShape(t *testing.T) {
	cfg := transformer.Config{Vocab: 11, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 2, DecLayers: 1, SeqLen: 6}
	m := transformer.NewLMModel(cfg, rand.New(rand.NewSource(8)))
	logits := m.Forward([]int{1, 2, 3, 4, 5, 6})
	if logits.Rows != 6 || logits.Cols != 11 {
		t.Fatalf("logits %dx%d", logits.Rows, logits.Cols)
	}
}

func TestLMModelGradCheckTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-model gradcheck")
	}
	cfg := transformer.Config{Vocab: 5, Dim: 4, Heads: 1, FFHidden: 4, EncLayers: 1, DecLayers: 1, SeqLen: 3}
	m := transformer.NewLMModel(cfg, rand.New(rand.NewSource(9)))
	ids := []int{1, 2, 3}
	targets := []int{2, 3, 4}
	loss := func() float64 {
		v, grad := m.Loss(ids, targets)
		m.Backward(grad)
		return v
	}
	testutil.GradCheck(t, m.Params(), loss, 5e-3)
}

func TestLMModelLearnsCopyPattern(t *testing.T) {
	// A deterministic cycle 1->2->3->1... must be learnable to near 100%.
	cfg := transformer.Config{Vocab: 4, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 1, DecLayers: 1, SeqLen: 6}
	rng := rand.New(rand.NewSource(10))
	m := transformer.NewLMModel(cfg, rng)
	ids := []int{1, 2, 3, 1, 2, 3}
	targets := []int{2, 3, 1, 2, 3, 1}
	opt := nn.NewAdam(0.01)
	for step := 0; step < 150; step++ {
		nn.ZeroGrads(m.Params())
		_, grad := m.Loss(ids, targets)
		m.Backward(grad)
		nn.ClipGrads(m.Params(), 5)
		opt.Step(m.Params())
	}
	if acc := m.Accuracy(ids, targets); acc < 0.99 {
		t.Fatalf("LM failed to learn cycle: acc %g", acc)
	}
}

func TestClassifierForwardShape(t *testing.T) {
	cfg := transformer.Config{Vocab: 10, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 2, SeqLen: 5, Classes: 3}
	c := transformer.NewClassifier(cfg, rand.New(rand.NewSource(11)))
	out := c.Forward([]int{1, 2, 3, 4, 5})
	if out.Rows != 1 || out.Cols != 3 {
		t.Fatalf("classifier output %dx%d", out.Rows, out.Cols)
	}
}

func TestClassifierGradCheckTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-model gradcheck")
	}
	cfg := transformer.Config{Vocab: 5, Dim: 4, Heads: 1, FFHidden: 4, EncLayers: 1, SeqLen: 3, Classes: 2}
	c := transformer.NewClassifier(cfg, rand.New(rand.NewSource(12)))
	ids := []int{1, 2, 3}
	loss := func() float64 {
		out := c.Forward(ids)
		v, grad := nn.SoftmaxCrossEntropy(out, []int{1})
		c.Backward(grad)
		return v
	}
	testutil.GradCheck(t, c.Params(), loss, 5e-3)
}

func TestClassifierLearnsSimpleRule(t *testing.T) {
	// class = whether token 1 appears in the sequence
	cfg := transformer.Config{Vocab: 6, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 1, SeqLen: 4, Classes: 2}
	rng := rand.New(rand.NewSource(13))
	c := transformer.NewClassifier(cfg, rng)
	opt := nn.NewAdam(0.01)
	sample := func() ([]int, int) {
		ids := make([]int, 4)
		label := 0
		for i := range ids {
			ids[i] = 2 + rng.Intn(4)
		}
		if rng.Intn(2) == 1 {
			ids[rng.Intn(4)] = 1
			label = 1
		}
		return ids, label
	}
	for step := 0; step < 300; step++ {
		ids, label := sample()
		nn.ZeroGrads(c.Params())
		out := c.Forward(ids)
		_, grad := nn.SoftmaxCrossEntropy(out, []int{label})
		c.Backward(grad)
		opt.Step(c.Params())
	}
	correct := 0
	for i := 0; i < 100; i++ {
		ids, label := sample()
		if c.Forward(ids).ArgmaxRow(0) == label {
			correct++
		}
	}
	if correct < 85 {
		t.Fatalf("classifier failed to learn presence rule: %d/100", correct)
	}
}

func TestRegressorLearnsConstant(t *testing.T) {
	cfg := transformer.Config{Vocab: 6, Dim: 8, Heads: 2, FFHidden: 8, EncLayers: 1, SeqLen: 4, Classes: 1}
	rng := rand.New(rand.NewSource(14))
	c := transformer.NewClassifier(cfg, rng)
	opt := nn.NewAdam(0.01)
	ids := []int{1, 2, 3, 4}
	target := 2.5
	var loss float64
	for step := 0; step < 200; step++ {
		nn.ZeroGrads(c.Params())
		out := c.Forward(ids)
		var grad *mat.Matrix
		loss, grad = nn.MSELoss(out, []float64{target})
		c.Backward(grad)
		opt.Step(c.Params())
	}
	if loss > 0.01 {
		t.Fatalf("regressor failed to fit constant: loss %g", loss)
	}
}
