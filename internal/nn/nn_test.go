package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/nn"
	"rt3/internal/testutil"
)

func TestLinearForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := nn.NewLinear("l", 2, 2, rng)
	l.W.Value.CopyFrom(mat.FromSlice(2, 2, []float64{1, 2, 3, 4}))
	l.B.Value.CopyFrom(mat.FromSlice(1, 2, []float64{10, 20}))
	y := l.Forward(mat.FromSlice(1, 2, []float64{1, 1}))
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Fatalf("forward got %v", y.Data)
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := nn.NewLinear("l", 3, 4, rng)
	x := mat.New(2, 3)
	x.Randomize(rng, 1)
	targets := []int{1, 3}
	loss := func() float64 {
		logits := l.Forward(x)
		v, grad := nn.SoftmaxCrossEntropy(logits, targets)
		l.Backward(grad)
		return v
	}
	testutil.GradCheck(t, l.Params(), loss, 1e-4)
}

func TestLinearInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := nn.NewLinear("l", 3, 2, rng)
	x := mat.New(1, 3)
	x.Randomize(rng, 1)
	logits := l.Forward(x)
	lossVal, grad := nn.SoftmaxCrossEntropy(logits, []int{0})
	dx := l.Backward(grad)
	// numeric check of dL/dx
	const h = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp, _ := nn.SoftmaxCrossEntropy(l.Forward(x), []int{0})
		x.Data[i] = orig - h
		lm, _ := nn.SoftmaxCrossEntropy(l.Forward(x), []int{0})
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if !testutil.Close(num, dx.Data[i], 1e-4) {
			t.Errorf("dx[%d]: numeric %g vs analytic %g", i, num, dx.Data[i])
		}
	}
	_ = lossVal
}

func TestEmbeddingGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := nn.NewEmbedding("e", 5, 3, rng)
	head := nn.NewLinear("h", 3, 2, rng)
	ids := []int{1, 4, 1}
	targets := []int{0, 1, 1}
	loss := func() float64 {
		x := e.Forward(ids)
		logits := head.Forward(x)
		v, grad := nn.SoftmaxCrossEntropy(logits, targets)
		e.Backward(head.Backward(grad))
		return v
	}
	testutil.GradCheck(t, append(e.Params(), head.Params()...), loss, 1e-4)
}

func TestEmbeddingOutOfRangePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := nn.NewEmbedding("e", 3, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Forward([]int{3})
}

func TestReLUForwardBackward(t *testing.T) {
	r := &nn.ReLU{}
	x := mat.FromSlice(1, 4, []float64{-1, 2, -3, 4})
	y := r.Forward(x)
	want := []float64{0, 2, 0, 4}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("ReLU forward %v", y.Data)
		}
	}
	dy := mat.FromSlice(1, 4, []float64{1, 1, 1, 1})
	dx := r.Backward(dy)
	wantDx := []float64{0, 1, 0, 1}
	for i, v := range wantDx {
		if dx.Data[i] != v {
			t.Fatalf("ReLU backward %v", dx.Data)
		}
	}
}

func TestGELUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l1 := nn.NewLinear("l1", 2, 3, rng)
	g := &nn.GELU{}
	l2 := nn.NewLinear("l2", 3, 2, rng)
	x := mat.New(2, 2)
	x.Randomize(rng, 1)
	loss := func() float64 {
		h := l2.Forward(g.Forward(l1.Forward(x)))
		v, grad := nn.SoftmaxCrossEntropy(h, []int{0, 1})
		l1.Backward(g.Backward(l2.Backward(grad)))
		return v
	}
	testutil.GradCheck(t, append(l1.Params(), l2.Params()...), loss, 1e-4)
}

func TestGELUValues(t *testing.T) {
	g := &nn.GELU{}
	y := g.Forward(mat.FromSlice(1, 3, []float64{-10, 0, 10}))
	if math.Abs(y.Data[0]) > 1e-6 {
		t.Fatalf("gelu(-10) = %g", y.Data[0])
	}
	if y.Data[1] != 0 {
		t.Fatalf("gelu(0) = %g", y.Data[1])
	}
	if math.Abs(y.Data[2]-10) > 1e-6 {
		t.Fatalf("gelu(10) = %g", y.Data[2])
	}
}

func TestLayerNormForwardStats(t *testing.T) {
	ln := nn.NewLayerNorm("ln", 8)
	x := mat.New(3, 8)
	x.Randomize(rand.New(rand.NewSource(7)), 5)
	y := ln.Forward(x)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		if math.Abs(mat.Mean(row)) > 1e-9 {
			t.Fatalf("row %d mean %g", i, mat.Mean(row))
		}
		if math.Abs(mat.Variance(row)-1) > 1e-3 {
			t.Fatalf("row %d var %g", i, mat.Variance(row))
		}
	}
}

func TestLayerNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ln := nn.NewLayerNorm("ln", 4)
	head := nn.NewLinear("h", 4, 2, rng)
	x := mat.New(2, 4)
	x.Randomize(rng, 1)
	loss := func() float64 {
		h := head.Forward(ln.Forward(x))
		v, grad := nn.SoftmaxCrossEntropy(h, []int{0, 1})
		ln.Backward(head.Backward(grad))
		return v
	}
	testutil.GradCheck(t, append(ln.Params(), head.Params()...), loss, 1e-3)
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	logits := mat.FromSlice(1, 2, []float64{0, 0})
	loss, grad := nn.SoftmaxCrossEntropy(logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %g", loss)
	}
	if math.Abs(grad.At(0, 0)+0.5) > 1e-12 || math.Abs(grad.At(0, 1)-0.5) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestMSELossKnown(t *testing.T) {
	pred := mat.FromSlice(2, 1, []float64{1, 3})
	loss, grad := nn.MSELoss(pred, []float64{0, 0})
	if math.Abs(loss-5) > 1e-12 {
		t.Fatalf("loss = %g", loss)
	}
	if math.Abs(grad.At(0, 0)-1) > 1e-12 || math.Abs(grad.At(1, 0)-3) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestAccuracyFromLogits(t *testing.T) {
	logits := mat.FromSlice(2, 2, []float64{1, 0, 0, 1})
	if acc := nn.AccuracyFromLogits(logits, []int{0, 1}); acc != 1 {
		t.Fatalf("acc = %g", acc)
	}
	if acc := nn.AccuracyFromLogits(logits, []int{1, 1}); acc != 0.5 {
		t.Fatalf("acc = %g", acc)
	}
}

func TestMaskKeepsWeightsZeroThroughTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := nn.NewLinear("l", 4, 4, rng)
	mask := mat.New(4, 4)
	mask.Fill(1)
	mask.Set(0, 0, 0)
	mask.Set(2, 3, 0)
	l.W.SetMask(mask)
	if l.W.Value.At(0, 0) != 0 {
		t.Fatal("SetMask did not zero weight")
	}
	opt := nn.NewAdam(0.01)
	x := mat.New(2, 4)
	x.Randomize(rng, 1)
	for step := 0; step < 10; step++ {
		nn.ZeroGrads(l.Params())
		logits := l.Forward(x)
		_, grad := nn.SoftmaxCrossEntropy(logits, []int{0, 1})
		l.Backward(grad)
		opt.Step(l.Params())
	}
	if l.W.Value.At(0, 0) != 0 || l.W.Value.At(2, 3) != 0 {
		t.Fatal("masked weights drifted from zero during training")
	}
	if l.W.Value.At(1, 1) == 0 {
		t.Fatal("unmasked weight unexpectedly zero")
	}
}

func TestSetMaskShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := nn.NewLinear("l", 2, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.W.SetMask(mat.New(3, 3))
}

func TestSGDReducesLoss(t *testing.T) {
	testOptimizerReducesLoss(t, nn.NewSGD(0.1, 0.9))
}

func TestAdamReducesLoss(t *testing.T) {
	testOptimizerReducesLoss(t, nn.NewAdam(0.01))
}

func testOptimizerReducesLoss(t *testing.T, opt nn.Optimizer) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	l := nn.NewLinear("l", 3, 2, rng)
	x := mat.New(4, 3)
	x.Randomize(rng, 1)
	targets := []int{0, 1, 0, 1}
	first := -1.0
	last := 0.0
	for step := 0; step < 50; step++ {
		nn.ZeroGrads(l.Params())
		logits := l.Forward(x)
		loss, grad := nn.SoftmaxCrossEntropy(logits, targets)
		l.Backward(grad)
		opt.Step(l.Params())
		if first < 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %g -> %g", first, last)
	}
}

func TestClipGrads(t *testing.T) {
	p := nn.NewParameter("p", 1, 2)
	p.Grad.CopyFrom(mat.FromSlice(1, 2, []float64{3, 4}))
	norm := nn.ClipGrads([]*nn.Parameter{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %g", norm)
	}
	if math.Abs(mat.L2(p.Grad.Data)-1) > 1e-9 {
		t.Fatalf("post-clip norm %g", mat.L2(p.Grad.Data))
	}
	// below the threshold: untouched
	p.Grad.CopyFrom(mat.FromSlice(1, 2, []float64{0.1, 0}))
	nn.ClipGrads([]*nn.Parameter{p}, 1)
	if p.Grad.Data[0] != 0.1 {
		t.Fatal("clip modified small gradient")
	}
}

func TestGlobalSparsity(t *testing.T) {
	a := nn.NewParameter("a", 2, 2)
	a.Value.CopyFrom(mat.FromSlice(2, 2, []float64{1, 0, 0, 0}))
	b := nn.NewParameter("b", 1, 4)
	b.Value.CopyFrom(mat.FromSlice(1, 4, []float64{1, 1, 1, 1}))
	got := nn.GlobalSparsity([]*nn.Parameter{a, b})
	if math.Abs(got-3.0/8) > 1e-12 {
		t.Fatalf("GlobalSparsity = %g", got)
	}
	if nn.GlobalSparsity(nil) != 0 {
		t.Fatal("empty sparsity should be 0")
	}
}

// forkMatchesInline drives a row-wise module that splits large batches
// by row span across the mat.Fork helpers: every row count around its
// fork threshold gives the bits of the inline run (GOMAXPROCS 1) — the
// output and, through Backward, what Forward cached for it — with and
// without buffer reuse, and only the rows from the threshold up fan out.
func forkMatchesInline(t *testing.T, cols, threshold int, setReuse func(bool), forward func(x *mat.Matrix) *mat.Matrix, backward func(dy *mat.Matrix) *mat.Matrix) {
	rng := rand.New(rand.NewSource(31))
	for _, reuse := range []bool{false, true} {
		setReuse(reuse)
		for _, rows := range []int{1, 2, threshold - 1, threshold, threshold + 1, 384, 3001} {
			x := mat.New(rows, cols)
			x.Randomize(rng, 3)
			testutil.Procs(t, 1)
			inline := forward(x).Clone()
			inlineGrad := backward(x)
			testutil.Procs(t, 4)
			before := mat.ForkStats().Regions
			forked := forward(x)
			after := mat.ForkStats().Regions
			if !mat.Equal(forked, inline, 0) || !mat.Equal(backward(x), inlineGrad, 0) {
				t.Fatalf("reuse=%v %d rows: forked forward differs from inline", reuse, rows)
			}
			if fanned := after > before; fanned != (rows >= threshold) {
				t.Errorf("%d rows: fanned out = %v", rows, fanned)
			}
		}
	}
}

// TestGELUForkMatchesInline: GELU fans out from 2048 elements (64
// columns: 32 rows; a decode step's 8 x 768 is three times that).
func TestGELUForkMatchesInline(t *testing.T) {
	gelu := &nn.GELU{}
	forkMatchesInline(t, 64, 32, gelu.SetBufferReuse, gelu.Forward, gelu.Backward)
}

// TestBiasForkMatchesInline: the bias add after every product
// (Matrix.AddRowVector) fans out from 32768 elements (64 columns: 512
// rows; a decode step's 8 x 768 stays inline, a prefill splits from 43
// rows of 768 or 171 of 192). It has no state: "backward" is the
// identity.
func TestBiasForkMatchesInline(t *testing.T) {
	const cols = 64
	bias := mat.New(1, cols)
	bias.Randomize(rand.New(rand.NewSource(36)), 1)
	forward := func(x *mat.Matrix) *mat.Matrix {
		y := x.Clone()
		y.AddRowVector(bias.Data)
		return y
	}
	forkMatchesInline(t, cols, mat.ForkMinWork/mat.WorkBias/cols, func(bool) {}, forward, func(dy *mat.Matrix) *mat.Matrix { return dy })
}

// TestLayerNormForkMatchesInline: the residual + layer norm fans out from
// 8192 elements (64 columns: 128 rows; a decode step's 8 x 192 stays
// inline, a 256-row prefill splits).
func TestLayerNormForkMatchesInline(t *testing.T) {
	const cols = 64
	rng := rand.New(rand.NewSource(32))
	ln := nn.NewLayerNorm("ln", cols)
	ln.Gamma.Value.Randomize(rng, 2)
	ln.Beta.Value.Randomize(rng, 1)
	res := mat.New(3001, cols)
	res.Randomize(rng, 3)
	forward := func(x *mat.Matrix) *mat.Matrix { return ln.ForwardResidual(x, res.RowSpan(0, x.Rows)) }
	forkMatchesInline(t, cols, 128, ln.SetBufferReuse, forward, ln.Backward)
}
