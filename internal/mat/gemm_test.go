package mat_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/testutil"
)

// sweepDims are the accumulator-tile edge cases: everything around the
// 4- and 8-row blocks and the 4-wide panels, plus both sides of 16 and
// 32. Every (M, K, N) triple from this set must agree with the naive
// loop — the register-blocked remainder paths all get exercised.
var sweepDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33}

// servingShapes are the block-FC shapes the serving path actually runs
// (batch x in x out at dim=192, ffn=768).
var servingShapes = [][3]int{{256, 192, 768}, {256, 768, 192}, {8, 192, 768}, {64, 192, 192}}

// TestGemmPanelsBitIdenticalSweep: the float64 packed path must equal
// the naive triple loop bit for bit on every tile-edge shape. Register
// blocking reorders work across dst elements, never within one
// element's ascending-k sum, and the AVX kernel uses strict mul/add —
// so tolerance here is exactly zero.
func TestGemmPanelsBitIdenticalSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, M := range sweepDims {
		for _, K := range sweepDims {
			for _, N := range sweepDims {
				x := mat.New(M, K)
				x.Randomize(rng, 1)
				w := mat.New(K, N)
				w.Randomize(rng, 1)
				want := mat.New(M, N)
				testutil.NaiveMatMul(want, x, w)
				got := mat.New(M, N)
				mat.GemmPanels(got, x.Data, mat.PackPanels(w))
				if !mat.Equal(got, want, 0) {
					t.Fatalf("%dx%dx%d: packed f64 differs from naive loop", M, K, N)
				}
			}
		}
	}
}

// TestGemmPanelsMatchesMatMulServing pins the packed path to the
// production MatMul at the real serving shapes, still bit-exact.
func TestGemmPanelsMatchesMatMulServing(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, sh := range servingShapes {
		M, K, N := sh[0], sh[1], sh[2]
		x := mat.New(M, K)
		x.Randomize(rng, 1)
		w := mat.New(K, N)
		w.Randomize(rng, 1)
		want := mat.New(M, N)
		mat.MatMul(want, x, w)
		got := mat.New(M, N)
		mat.GemmPanels(got, x.Data, mat.PackPanels(w))
		if !mat.Equal(got, want, 0) {
			t.Fatalf("%v: packed f64 differs from MatMul", sh)
		}
	}
}

// TestGemmZeroAllocSteadyState: after warm-up, the hot path must be
// allocation-free — Fork bodies come from a free list.
func TestGemmZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	x := mat.New(16, 48)
	x.Randomize(rng, 1)
	w := mat.New(48, 24)
	w.Randomize(rng, 1)
	dst := mat.New(16, 24)
	p := mat.PackPanels(w)
	if n := testing.AllocsPerRun(50, func() { mat.GemmPanels(dst, x.Data, p) }); n != 0 {
		t.Errorf("%v allocs per call in steady state", n)
	}
}

// BenchmarkGemmPanels compares the packed micro-kernel against the dense
// MatMul baseline at the serving shapes.
func BenchmarkGemmPanels(b *testing.B) {
	rng := rand.New(rand.NewSource(87))
	for _, sh := range servingShapes {
		M, K, N := sh[0], sh[1], sh[2]
		x := mat.New(M, K)
		x.Randomize(rng, 1)
		w := mat.New(K, N)
		w.Randomize(rng, 1)
		dst := mat.New(M, N)
		p := mat.PackPanels(w)
		name := fmt.Sprintf("%dx%dx%d", M, K, N)
		b.Run(name+"/matmul", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.MatMul(dst, x, w)
			}
		})
		b.Run(name+"/packed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.GemmPanels(dst, x.Data, p)
			}
		})
	}
}
