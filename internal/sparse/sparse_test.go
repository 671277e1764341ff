package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rt3/internal/mat"
	"rt3/internal/pattern"
)

func denseMul(x, w *mat.Matrix) *mat.Matrix {
	y := mat.New(x.Rows, w.Cols)
	mat.MatMul(y, x, w)
	return y
}

// mulPoisoned runs p.MulInto into a dirty destination: MulInto must
// fully overwrite it, so a stale value leaking through shows up in the
// caller's comparison against dense execution.
func mulPoisoned(p *Pattern, x *mat.Matrix) *mat.Matrix {
	dst := mat.New(x.Rows, p.Cols)
	dst.Fill(1e9)
	p.MulInto(dst, x)
	return dst
}

// packRandom packs a random rows x cols matrix under a random psize-4
// pattern set.
func packRandom(t *testing.T, rows, cols int, seed int64) *Pattern {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := mat.New(rows, cols)
	w.Randomize(rng, 1)
	p, err := PackSet(w, pattern.RandomSet(4, 0.5, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPatternMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols, batch := 8, 8, 1+rng.Intn(3)
		w := mat.New(rows, cols)
		w.Randomize(rng, 1)
		set := pattern.RandomSet(4, 0.5, 3, rng)
		mask, choices := set.Apply(w)
		masked := w.Clone()
		masked.Hadamard(mask)

		bits := make([][]uint8, len(set.Patterns))
		for i, p := range set.Patterns {
			bits[i] = p.Bits
		}
		pk, err := NewPattern(w, 4, bits, choices)
		if err != nil {
			return false
		}
		x := mat.New(batch, rows)
		x.Randomize(rng, 1)
		return mat.Equal(mulPoisoned(pk, x), denseMul(x, masked), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternHandlesEdgeTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := mat.New(7, 5) // not multiples of psize=4
	w.Randomize(rng, 1)
	set := pattern.RandomSet(4, 0.5, 2, rng)
	mask, choices := set.Apply(w)
	masked := w.Clone()
	masked.Hadamard(mask)
	bits := make([][]uint8, len(set.Patterns))
	for i, p := range set.Patterns {
		bits[i] = p.Bits
	}
	pk, err := NewPattern(w, 4, bits, choices)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(2, 7)
	x.Randomize(rng, 1)
	if !mat.Equal(mulPoisoned(pk, x), denseMul(x, masked), 1e-9) {
		t.Fatal("edge-tile execution differs from dense")
	}
}

func TestPatternValidation(t *testing.T) {
	w := mat.New(4, 4)
	if _, err := NewPattern(w, 2, [][]uint8{{1}}, []int{0, 0, 0, 0}); err == nil {
		t.Fatal("bad bitmap length accepted")
	}
	bits := [][]uint8{{1, 0, 0, 1}}
	if _, err := NewPattern(w, 2, bits, []int{0}); err == nil {
		t.Fatal("too few choices accepted")
	}
	if _, err := NewPattern(w, 2, bits, []int{0, 0, 0, 5}); err == nil {
		t.Fatal("out-of-dict id accepted")
	}
	if _, err := NewPattern(w, 2, bits, []int{0, 0, 0, 0, 0}); err == nil {
		t.Fatal("too many choices accepted")
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	f()
}

func TestShapePanics(t *testing.T) {
	p := packRandom(t, 4, 6, 6)
	mustPanic(t, "x with the wrong inner dim", func() { p.MulInto(mat.New(1, 6), mat.New(1, 3)) })
	// same element count as a valid 2x4 input, wrong shape
	mustPanic(t, "x transposed", func() { p.MulInto(mat.New(4, 6), mat.New(4, 2)) })
}

func TestMulIntoDstShapePanics(t *testing.T) {
	p := packRandom(t, 4, 6, 6)
	x := mat.New(2, 4)
	mustPanic(t, "dst with the wrong cols", func() { p.MulInto(mat.New(2, 5), x) })
	mustPanic(t, "dst with the wrong rows", func() { p.MulInto(mat.New(3, 6), x) })
	// same element count as the valid 2x6 destination, wrong shape
	mustPanic(t, "dst transposed", func() { p.MulInto(mat.New(6, 2), x) })
}

// TestEmptyMatrix: all-zero weights keep their kept positions (the
// storage model counts positions, not values) and multiply to exact
// zeros; a set that keeps nothing stores nothing and still overwrites
// the destination.
func TestEmptyMatrix(t *testing.T) {
	x := mat.New(2, 4)
	x.Fill(1)
	rng := rand.New(rand.NewSource(7))
	zeros, err := PackSet(mat.New(4, 4), pattern.RandomSet(4, 0.5, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	if zeros.NNZ() == 0 {
		t.Error("zero-valued weights under a half-kept set store no positions")
	}
	if y := mulPoisoned(zeros, x); y.NNZ() != 0 {
		t.Error("zero matrix produced nonzero output")
	}

	w := mat.New(4, 4)
	w.Fill(3)
	keepNone := &pattern.Set{Patterns: []pattern.Pattern{{Size: 4, Bits: make([]uint8, 16)}}}
	empty, err := PackSet(w, keepNone)
	if err != nil {
		t.Fatal(err)
	}
	if empty.NNZ() != 0 {
		t.Errorf("keep-nothing set stores %d values", empty.NNZ())
	}
	if y := mulPoisoned(empty, x); y.NNZ() != 0 {
		t.Error("keep-nothing set produced nonzero output")
	}
}
