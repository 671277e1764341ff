package pattern

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rt3/internal/mat"
)

func TestPatternOnesAndSparsity(t *testing.T) {
	p := NewPattern(4)
	if p.Ones() != 0 || p.Sparsity() != 1 {
		t.Fatal("empty pattern wrong")
	}
	p.Bits[0] = 1
	p.Bits[5] = 1
	if p.Ones() != 2 {
		t.Fatalf("Ones = %d", p.Ones())
	}
	if math.Abs(p.Sparsity()-14.0/16) > 1e-12 {
		t.Fatalf("Sparsity = %g", p.Sparsity())
	}
}

func TestPatternEqualAndClone(t *testing.T) {
	p := NewPattern(3)
	p.Bits[4] = 1
	q := Pattern{Size: p.Size, Bits: slices.Clone(p.Bits)}
	if !p.Equal(q) {
		t.Fatal("copy not equal")
	}
	q.Bits[0] = 1
	if p.Equal(q) {
		t.Fatal("mutated copy still equal")
	}
	if p.Equal(NewPattern(4)) {
		t.Fatal("different sizes equal")
	}
}

func TestFromImportanceKeepsTopPositions(t *testing.T) {
	imp := mat.FromSlice(2, 2, []float64{10, 1, 5, 0.1})
	p := FromImportance(imp, 0.5)
	if p.Bits[0] != 1 || p.Bits[2] != 1 {
		t.Fatalf("top positions not kept: %v", p.Bits)
	}
	if p.Bits[1] != 0 || p.Bits[3] != 0 {
		t.Fatalf("weak positions kept: %v", p.Bits)
	}
}

func TestFromImportanceSparsityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 2 + r.Intn(10)
		imp := mat.New(size, size)
		imp.Randomize(r, 1)
		target := r.Float64() * 0.9
		p := FromImportance(imp, target)
		// achieved sparsity within one cell of the target
		cell := 1.0 / float64(size*size)
		return math.Abs(p.Sparsity()-target) <= cell+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFromImportanceNeverEmpty(t *testing.T) {
	imp := mat.New(4, 4)
	p := FromImportance(imp, 1.0)
	if p.Ones() < 1 {
		t.Fatal("pattern has no kept positions")
	}
}

func TestImportanceMapReflectsWeights(t *testing.T) {
	// all blocks identical: the importance map must mirror |w| structure
	w := mat.New(8, 8)
	for r := 0; r < 8; r += 4 {
		for c := 0; c < 8; c += 4 {
			w.Set(r, c, 100) // position (0,0) of each 4x4 block is huge
		}
	}
	imp := ImportanceMap(w, 4, rand.New(rand.NewSource(1)))
	if imp.At(0, 0) <= imp.At(1, 1) {
		t.Fatalf("importance map missed dominant position: %g vs %g", imp.At(0, 0), imp.At(1, 1))
	}
}

func TestGenerateSetSizeAndSparsity(t *testing.T) {
	w := mat.New(16, 16)
	w.Randomize(rand.New(rand.NewSource(2)), 1)
	s := GenerateSet(w, 4, 0.5, 5, rand.New(rand.NewSource(3)))
	if len(s.Patterns) != 5 {
		t.Fatalf("set size %d", len(s.Patterns))
	}
	for _, p := range s.Patterns {
		if math.Abs(p.Sparsity()-0.5) > 0.1 {
			t.Fatalf("pattern sparsity %g", p.Sparsity())
		}
	}
	if s.PSize() != 4 {
		t.Fatalf("PSize = %d", s.PSize())
	}
}

func TestRandomSetSparsity(t *testing.T) {
	s := RandomSet(8, 0.75, 3, rand.New(rand.NewSource(4)))
	for _, p := range s.Patterns {
		if math.Abs(p.Sparsity()-0.75) > 0.02 {
			t.Fatalf("rPP pattern sparsity %g", p.Sparsity())
		}
	}
}

func TestApplyChoosesMaxRetainedNorm(t *testing.T) {
	// two patterns: keep-left-half vs keep-right-half; weight mass on the
	// right means the right pattern must be chosen.
	size := 2
	left := NewPattern(size)
	left.Bits[0], left.Bits[2] = 1, 1
	right := NewPattern(size)
	right.Bits[1], right.Bits[3] = 1, 1
	s := &Set{Sparsity: 0.5, Patterns: []Pattern{left, right}}
	w := mat.FromSlice(2, 2, []float64{0.1, 9, 0.1, 9})
	mask, choices := s.Apply(w)
	if len(choices) != 1 || choices[0] != 1 {
		t.Fatalf("choices = %v", choices)
	}
	if mask.At(0, 1) != 1 || mask.At(0, 0) != 0 {
		t.Fatalf("mask = %v", mask.Data)
	}
}

func TestApplyMaskSparsityMatchesPattern(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := mat.New(12, 12)
		w.Randomize(r, 1)
		s := RandomSet(4, 0.5, 3, r)
		mask, choices := s.Apply(w)
		// 3x3 blocks
		if len(choices) != 9 {
			return false
		}
		return math.Abs(mask.Sparsity()-0.5) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyHandlesPartialEdgeBlocks(t *testing.T) {
	w := mat.New(5, 7) // not divisible by 4
	w.Randomize(rand.New(rand.NewSource(5)), 1)
	s := RandomSet(4, 0.5, 2, rand.New(rand.NewSource(6)))
	mask, choices := s.Apply(w)
	if mask.Rows != 5 || mask.Cols != 7 {
		t.Fatalf("mask shape %dx%d", mask.Rows, mask.Cols)
	}
	if len(choices) != 2*2 {
		t.Fatalf("choices %d", len(choices))
	}
}

func TestCombineWithBackboneIsIntersection(t *testing.T) {
	a := mat.FromSlice(1, 4, []float64{1, 1, 0, 0})
	b := mat.FromSlice(1, 4, []float64{1, 0, 1, 0})
	c := CombineWithBackbone(a, b)
	want := []float64{1, 0, 0, 0}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("combine = %v", c.Data)
		}
	}
}

func TestSetMaskBytes(t *testing.T) {
	s := RandomSet(8, 0.5, 4, rand.New(rand.NewSource(7)))
	// 4 patterns * 64 bits = 256 bits = 32 bytes
	if got := s.MaskBytes(); got != 32 {
		t.Fatalf("MaskBytes = %d", got)
	}
}

func TestPatternString(t *testing.T) {
	p := NewPattern(2)
	p.Bits[0] = 1
	want := "#.\n..\n"
	if p.String() != want {
		t.Fatalf("String = %q", p.String())
	}
}
