package mat_test

import (
	"math"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/testutil"
)

// fuseWitness returns the input on which a fused product and a
// separately rounded one differ: x = (1, 1+2^-27), w = (-1, 1-2^-27).
// fma((1+2^-27), (1-2^-27), -1) is exactly -2^-54, while the rounded
// product 1-2^-54 ties to 1 and mul-then-add gives 0. The one column is
// repeated LaneGroup times, so that the assembly twins (which take whole
// groups of columns) run on it, and x holds rows copies of its row.
func fuseWitness(rows int) (x, w *mat.Matrix) {
	e := math.Ldexp(1, -27)
	x, w = mat.New(rows, 2), mat.New(2, mat.LaneGroup)
	for r := 0; r < rows; r++ {
		x.Set(r, 0, 1)
		x.Set(r, 1, 1+e)
	}
	for c := 0; c < mat.LaneGroup; c++ {
		w.Set(0, c, -1)
		w.Set(1, c, 1-e)
	}
	return x, w
}

// TestProductsFuse is the witness that every served product and every
// reference fuses: each must return exactly -2^-54, by bits, on
// fuseWitness, where the unfused sum is 0. Without it the tolerance-0
// suites would pass just as well with every side unfused. Every lane
// twin this host and build runs is checked (go8 and go16 everywhere, avx
// and the two ZMM kernels where the gate picks them; a twin the host
// lacks is an explicit SKIP), then MatMul and testutil.NaiveMatMul.
func TestProductsFuse(t *testing.T) {
	want := math.Float64bits(-math.Ldexp(1, -54))
	if x, w := fuseWitness(1); float64(x.At(0, 0)*w.At(0, 0))+float64(x.At(0, 1)*w.At(1, 0)) != 0 {
		t.Fatal("the witness does not tell a fused sum from an unfused one")
	}
	check := func(t *testing.T, got *mat.Matrix) {
		t.Helper()
		for i, v := range got.Data {
			if math.Float64bits(v) != want {
				t.Fatalf("element %d is %g (bits %#x), want -2^-54: the product did not fuse", i, v, math.Float64bits(v))
			}
		}
	}
	isa := mat.LaneISA()
	for _, twin := range []struct {
		name        string
		asm         bool
		width, rows int
		runs        bool
	}{
		{"go8", false, 8, 8, true},
		{"go16", false, 16, 16, true},
		{"avx", true, 8, 8, isa != "go"},
		{"avx512/8", true, 16, 8, isa == "avx512"},
		{"avx512/16", true, 16, 16, isa == "avx512"},
	} {
		t.Run(twin.name, func(t *testing.T) {
			if !twin.runs {
				t.Skipf("GemmLanes runs the %q twin on this host", isa)
			}
			x, w := fuseWitness(twin.rows)
			got := mat.New(twin.rows, mat.LaneGroup)
			mat.GemmLanesTwin(got, x, mat.LaneWeightsOf(t, w), twin.asm, twin.width)
			check(t, got)
		})
	}
	t.Run("MatMul", func(t *testing.T) {
		x, w := fuseWitness(3)
		got := mat.New(3, mat.LaneGroup)
		mat.MatMul(got, x, w)
		check(t, got)
	})
	t.Run("NaiveMatMul", func(t *testing.T) {
		x, w := fuseWitness(3)
		got := mat.New(3, mat.LaneGroup)
		testutil.NaiveMatMul(got, x, w)
		check(t, got)
	})
}
