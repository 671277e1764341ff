package sparse_test

import (
	"math/rand"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/pattern"
	"rt3/internal/sparse"
	"rt3/internal/testutil"
)

// sweepRows are the batch sizes around every lane-block edge of the
// execution kernel: 1-9 rows, both sides of 16 and 32, one full row
// block, one past it, and two row blocks plus a tail.
var sweepRows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65, 130}

// maskedNaive is the reference every Pattern product must equal bit for
// bit: the untiled ascending-k loop over the masked dense matrix.
func maskedNaive(x, w, mask *mat.Matrix) *mat.Matrix {
	masked := w.Clone()
	masked.Hadamard(mask)
	want := mat.New(x.Rows, w.Cols)
	testutil.NaiveMatMul(want, x, masked)
	return want
}

// TestPatternBitIdenticalSweep: tolerance zero against masked dense
// execution at every batch size of sweepRows, with K and N that are not
// multiples of the pattern size or of the kernel's column-group width
// (edge tiles, a partial last group), from nothing pruned to all but one
// position of every tile pruned.
func TestPatternBitIdenticalSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for _, psize := range []int{4, 8} {
		allButOne := 1 - 1/float64(psize*psize)
		for _, dims := range [][2]int{{8, 8}, {12, 9}, {13, 18}, {33, 13}} {
			K, N := dims[0], dims[1]
			for _, sparsity := range []float64{0, 0.3, 0.5, 0.7, allButOne} {
				w := mat.New(K, N)
				w.Randomize(rng, 1)
				set := pattern.RandomSet(psize, sparsity, 3, rng)
				p, err := sparse.PackSet(w, set)
				if err != nil {
					t.Fatal(err)
				}
				mask, _ := set.Apply(w)
				for _, M := range sweepRows {
					x := mat.New(M, K)
					x.Randomize(rng, 1)
					got := mat.New(M, N)
					got.Fill(7) // every element must be overwritten
					p.MulInto(got, x)
					if !mat.Equal(got, maskedNaive(x, w, mask), 0) {
						t.Fatalf("psize %d, %dx%dx%d, sparsity %.3f: differs from masked dense", psize, M, K, N, sparsity)
					}
				}
			}
		}
	}
}

// TestPatternZeroValuedKeptWeights: kept positions that hold an exact
// zero are stored and executed like any other weight; their +0 or -0
// products must leave every sum exactly where masked dense puts it.
func TestPatternZeroValuedKeptWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	K, N := 13, 10
	w := mat.New(K, N)
	w.Randomize(rng, 1)
	set := pattern.RandomSet(4, 0.5, 3, rng)
	mask, choices := set.Apply(w)
	bits := make([][]uint8, len(set.Patterns))
	for i, p := range set.Patterns {
		bits[i] = p.Bits
	}
	for _, zeroed := range []string{"every kept weight", "every other kept weight"} {
		wz := w.Clone()
		n := 0
		for i, m := range mask.Data {
			if m != 0 {
				if zeroed == "every kept weight" || n%2 == 0 {
					wz.Data[i] = 0
				}
				n++
			}
		}
		p, err := sparse.NewPattern(wz, 4, bits, choices)
		if err != nil {
			t.Fatal(err)
		}
		for _, M := range []int{1, 7, 8, 9} {
			x := mat.New(M, K)
			x.Randomize(rng, 1)
			got := mat.New(M, N)
			got.Fill(7)
			p.MulInto(got, x)
			if !mat.Equal(got, maskedNaive(x, wz, mask), 0) {
				t.Fatalf("%s zeroed, batch %d: differs from masked dense", zeroed, M)
			}
		}
	}
}

// TestPatternRejectsTooManyRows: the execution streams index rows with
// 16 bits, so a matrix of more than mat.LaneMaxK rows is a build error
// from NewPattern and PackSet, and the limit itself still packs.
func TestPatternRejectsTooManyRows(t *testing.T) {
	const psize = 8
	keepAll := make([]uint8, psize*psize)
	for i := range keepAll {
		keepAll[i] = 1
	}
	set := &pattern.Set{Patterns: []pattern.Pattern{{Size: psize, Bits: keepAll}}}
	for _, tc := range []struct {
		rows int
		ok   bool
	}{{mat.LaneMaxK, true}, {mat.LaneMaxK + 1, false}} {
		w := mat.New(tc.rows, 1)
		choices := make([]int, (tc.rows+psize-1)/psize)
		if _, err := sparse.NewPattern(w, psize, [][]uint8{keepAll}, choices); (err == nil) != tc.ok {
			t.Errorf("NewPattern with %d rows: err = %v, want ok = %v", tc.rows, err, tc.ok)
		}
		if _, err := sparse.PackSet(w, set); (err == nil) != tc.ok {
			t.Errorf("PackSet with %d rows: err = %v, want ok = %v", tc.rows, err, tc.ok)
		}
	}
}
