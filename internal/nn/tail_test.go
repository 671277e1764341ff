package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rt3/internal/mat"
	"rt3/internal/nn"
	"rt3/internal/testutil"
)

// TestGELUMatchesTanhForm: the sigmoid form GELU computes on the
// repository's exp is the tanh approximation, to 1e-14 absolute over
// |v| <= 20 (measured 1.8e-15) — and below -6, where the tanh form has
// cancelled to exactly 0, it keeps the small negative value.
func TestGELUMatchesTanhForm(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	x := mat.New(64, 1000)
	for i := range x.Data {
		x.Data[i] = -20 + 40*rng.Float64()
	}
	copy(x.Data, []float64{0, math.Copysign(0, -1), 20, -20, 1e-300, -1e-300})
	y := (&nn.GELU{}).Forward(x)
	worst := 0.0
	for i, v := range x.Data {
		want := 0.5 * v * (1 + math.Tanh(mat.GELUScale*(v+mat.GELUCubic*v*v*v)))
		if d := math.Abs(y.Data[i] - want); d > worst {
			worst = d
		}
		if v < -6 && !(y.Data[i] < 0) {
			t.Fatalf("gelu(%v) = %v, want a negative value", v, y.Data[i])
		}
	}
	t.Logf("worst case %.2g from the tanh form", worst)
	if worst > 1e-14 {
		t.Fatalf("GELU is %g from the tanh form, bound 1e-14", worst)
	}
}

// TestLayerNormResidualMatchesNaive: ForwardResidual is the naive
// reference row for row at tolerance 0 (serving widths, which the row
// kernel's assembly takes, and widths it leaves to the portable loop),
// leaves both inputs untouched, equals ForwardResidual of the explicit
// sum with no residual, and feeds Backward the same normalised rows — or,
// with buffer reuse on (the forward-only serving mode), refuses Backward.
func TestLayerNormResidualMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, dim := range []int{4, 16, 40, 192} {
		for _, reuse := range []bool{false, true} {
			ln := nn.NewLayerNorm("ln", dim)
			ln.SetOutputSlot(nn.NewSlot(reuse))
			ln.Gamma.Value.Randomize(rng, 2)
			ln.Beta.Value.Randomize(rng, 1)
			for _, rows := range []int{1, 8, 37} {
				x, res := mat.New(rows, dim), mat.New(rows, dim)
				x.Randomize(rng, 3)
				res.Randomize(rng, 3)
				x0, res0 := x.Clone(), res.Clone()
				got := ln.ForwardResidual(x, res).Clone()
				if !mat.Equal(x, x0, 0) || !mat.Equal(res, res0, 0) {
					t.Fatalf("dim %d: ForwardResidual changed its inputs", dim)
				}
				want := mat.New(rows, dim)
				for i := 0; i < rows; i++ {
					testutil.NaiveLayerNorm(want.Row(i), x.Row(i), res.Row(i), ln.Gamma.Value.Data, ln.Beta.Value.Data, ln.Eps)
				}
				if !mat.Equal(got, want, 0) {
					t.Fatalf("dim %d, %d rows, reuse %v: ForwardResidual differs from the naive reference", dim, rows, reuse)
				}
				dy := mat.New(rows, dim)
				dy.Randomize(rng, 1)
				var dx *mat.Matrix
				if reuse {
					servingBackwardPanics(t, fmt.Sprintf("dim %d, %d rows", dim, rows), func() { ln.Backward(dy) })
				} else {
					dx = ln.Backward(dy)
				}
				sum := x.Clone()
				sum.Add(res)
				if !mat.Equal(ln.ForwardResidual(sum, nil), want, 0) {
					t.Fatalf("dim %d, %d rows: ForwardResidual(x+res, nil) differs from ForwardResidual(x, res)", dim, rows)
				}
				if reuse {
					servingBackwardPanics(t, fmt.Sprintf("dim %d, %d rows, explicit sum", dim, rows), func() { ln.Backward(dy) })
				} else if !mat.Equal(ln.Backward(dy), dx, 0) {
					t.Fatalf("dim %d, %d rows: Backward after Forward of the explicit sum differs from after ForwardResidual", dim, rows)
				}
			}
		}
	}
}

// BenchmarkTail times the scalar tail of a step at the shapes the
// reference deployment runs — the softmax of one attention row (16
// entries: a decode step's; 130: a prefill's; 208: a shared-prefix
// request's; 96 and 256 beside them), GELU over a decode step's and a
// prefill's FFN activations, residual + layer norm and the bias add over
// the same — inline (GOMAXPROCS 1) and forked (2). It is where
// mat.WorkExp, mat.WorkNorm and mat.WorkBias come from
// (docs/ARCHITECTURE.md, "Parallel execution"). Besides the mean and its
// cost per element it reports the minimum over single calls, the figure
// to read on a noisy host, and the minimum's cost per element.
func BenchmarkTail(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	randMat := func(rows, cols int) *mat.Matrix {
		m := mat.New(rows, cols)
		m.Randomize(rng, 3)
		return m
	}
	type tailCase struct {
		name  string
		elems int
		run   func()
	}
	var cases []tailCase
	for _, n := range []int{16, 96, 130, 208, 256} {
		src, dst := randMat(1, n).Data, make([]float64, n)
		cases = append(cases, tailCase{fmt.Sprintf("softmax/%d", n), n, func() { mat.Softmax(dst, src) }})
	}
	for _, rows := range []int{8, 256} {
		g := &nn.GELU{}
		g.SetOutputSlot(nn.NewSlot(true))
		x := randMat(rows, 768)
		cases = append(cases, tailCase{fmt.Sprintf("gelu/%dx768", rows), len(x.Data), func() { g.Forward(x) }})
	}
	for _, rows := range []int{8, 256} {
		ln := nn.NewLayerNorm("ln", 192)
		ln.SetOutputSlot(nn.NewSlot(true))
		x, res := randMat(rows, 192), randMat(rows, 192)
		cases = append(cases, tailCase{fmt.Sprintf("residual+ln/%dx192", rows), len(x.Data), func() { ln.ForwardResidual(x, res) }})
	}
	for _, shape := range [][2]int{{8, 768}, {256, 768}, {256, 192}} {
		y, bias := randMat(shape[0], shape[1]), randMat(1, shape[1]).Data
		cases = append(cases, tailCase{fmt.Sprintf("bias/%dx%d", shape[0], shape[1]), len(y.Data), func() { y.AddRowVector(bias) }})
	}
	for _, c := range cases {
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/procs=%d", c.name, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				c.run()
				best := time.Duration(math.MaxInt64)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					c.run()
					if d := time.Since(t0); d < best {
						best = d
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.elems), "ns/elem")
				b.ReportMetric(float64(best.Nanoseconds()), "min-ns")
				b.ReportMetric(float64(best.Nanoseconds())/float64(c.elems), "min-ns/elem")
			})
		}
	}
}
