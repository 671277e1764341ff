package prune

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rt3/internal/mat"
)

func randomMatrix(rows, cols int, seed int64) *mat.Matrix {
	m := mat.New(rows, cols)
	m.Randomize(rand.New(rand.NewSource(seed)), 1)
	return m
}

func TestBlockPruneThresholdRemovesWeakColumns(t *testing.T) {
	// column 1 is tiny in both blocks -> fully pruned
	w := mat.FromSlice(4, 3, []float64{
		1, 0.001, 2,
		1, 0.001, 2,
		1, 0.001, 2,
		1, 0.001, 2,
	})
	mask, err := BlockPrune(w, BPConfig{Blocks: 2, Direction: ColumnsInRowBlocks, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if mask.At(i, 1) != 0 {
			t.Fatal("weak column survived")
		}
		if mask.At(i, 0) != 1 || mask.At(i, 2) != 1 {
			t.Fatal("strong column pruned")
		}
	}
}

func TestBlockPrunePerBlockIndependence(t *testing.T) {
	// column 0 weak only in the second block
	w := mat.FromSlice(4, 2, []float64{
		5, 5,
		5, 5,
		0.001, 5,
		0.001, 5,
	})
	mask, err := BlockPrune(w, BPConfig{Blocks: 2, Direction: ColumnsInRowBlocks, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if mask.At(0, 0) != 1 || mask.At(1, 0) != 1 {
		t.Fatal("block 1 column 0 should survive")
	}
	if mask.At(2, 0) != 0 || mask.At(3, 0) != 0 {
		t.Fatal("block 2 column 0 should be pruned")
	}
}

func TestBlockPruneRowsInColBlocks(t *testing.T) {
	w := mat.FromSlice(3, 4, []float64{
		5, 5, 5, 5,
		0.001, 0.001, 0.001, 0.001,
		5, 5, 5, 5,
	})
	mask, err := BlockPrune(w, BPConfig{Blocks: 2, Direction: RowsInColBlocks, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if mask.At(1, j) != 0 {
			t.Fatal("weak row survived")
		}
		if mask.At(0, j) != 1 {
			t.Fatal("strong row pruned")
		}
	}
}

func TestBlockPrunePercentileSparsity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 4 + r.Intn(12)
		cols := 4 + r.Intn(12)
		w := mat.New(rows, cols)
		w.Randomize(r, 1)
		pct := 0.25 + 0.5*r.Float64()
		mask, err := BlockPrune(w, BPConfig{Blocks: 2, Direction: ColumnsInRowBlocks, Percentile: pct})
		if err != nil {
			return false
		}
		sp := mask.Sparsity()
		// group quantization means sparsity is within one group of pct
		return sp > pct-2.0/float64(cols)-1e-9 && sp < pct+2.0/float64(cols)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPruneMaskIsBlockStructured(t *testing.T) {
	// property: within each block, each column is all-kept or all-pruned
	f := func(seed int64) bool {
		w := randomMatrix(8, 6, seed)
		cfg := BPConfig{Blocks: 2, Direction: ColumnsInRowBlocks, Percentile: 0.5}
		mask, err := BlockPrune(w, cfg)
		if err != nil {
			return false
		}
		for _, b := range blockBounds(8, 2) {
			for j := 0; j < 6; j++ {
				first := mask.At(b[0], j)
				for i := b[0]; i < b[1]; i++ {
					if mask.At(i, j) != first {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPruneValidation(t *testing.T) {
	if _, err := BlockPrune(mat.New(2, 2), BPConfig{Blocks: 0}); err == nil {
		t.Fatal("expected error for Blocks=0")
	}
	if _, err := BlockPrune(mat.New(2, 2), BPConfig{Blocks: 1, Percentile: 1.5}); err == nil {
		t.Fatal("expected error for Percentile>1")
	}
	if _, err := BlockPrune(mat.New(2, 2), BPConfig{Blocks: 1, Threshold: -1}); err == nil {
		t.Fatal("expected error for negative threshold")
	}
}

func TestRandomBlockPruneSameBudget(t *testing.T) {
	w := randomMatrix(16, 12, 7)
	cfg := BPConfig{Blocks: 4, Direction: ColumnsInRowBlocks, Percentile: 0.5}
	bp, err := BlockPrune(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rbp, err := RandomBlockPrune(w, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bp.Sparsity()-rbp.Sparsity()) > 1e-9 {
		t.Fatalf("rBP sparsity %g != BP sparsity %g", rbp.Sparsity(), bp.Sparsity())
	}
}

func TestRandomBlockPruneKeepsMoreImportantWeightsLessOften(t *testing.T) {
	// BP must retain strictly more weight mass than rBP on average.
	w := randomMatrix(20, 20, 8)
	cfg := BPConfig{Blocks: 4, Direction: ColumnsInRowBlocks, Percentile: 0.5}
	bp, _ := BlockPrune(w, cfg)
	kept := func(mask *mat.Matrix) float64 {
		var s float64
		for i, v := range w.Data {
			s += v * v * mask.Data[i]
		}
		return math.Sqrt(s)
	}
	bpNorm := kept(bp)
	rng := rand.New(rand.NewSource(2))
	var rbpNorm float64
	const trials = 10
	for i := 0; i < trials; i++ {
		rbp, _ := RandomBlockPrune(w, cfg, rng)
		rbpNorm += kept(rbp)
	}
	rbpNorm /= trials
	if bpNorm <= rbpNorm {
		t.Fatalf("BP retained norm %g <= rBP %g", bpNorm, rbpNorm)
	}
}

func TestBlockBoundsCoverExactly(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		k := 1 + r.Intn(10)
		covered := 0
		prev := 0
		for _, b := range blockBounds(n, k) {
			if b[0] != prev || b[1] <= b[0] {
				return false
			}
			covered += b[1] - b[0]
			prev = b[1]
		}
		return covered == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStorageCostOrdering(t *testing.T) {
	// At 50% block-structured sparsity: block storage must be far
	// smaller than COO, which must be smaller than dense*3.
	w := randomMatrix(32, 32, 10)
	cfg := BPConfig{Blocks: 4, Direction: ColumnsInRowBlocks, Percentile: 0.5}
	mask, _ := BlockPrune(w, cfg)
	coo := CostCOO(mask)
	blk := CostBlockStructured(mask, cfg)
	dense := CostDense(w.Rows, w.Cols)
	if blk.TotalWords >= coo.TotalWords {
		t.Fatalf("block %d >= COO %d words", blk.TotalWords, coo.TotalWords)
	}
	if blk.TotalWords >= dense.TotalWords {
		t.Fatalf("block %d >= dense %d words", blk.TotalWords, dense.TotalWords)
	}
	if coo.Values != mask.NNZ() || coo.Indices != 2*mask.NNZ() {
		t.Fatal("COO accounting wrong")
	}
}

func TestCostPatternAccounting(t *testing.T) {
	mask := mat.New(16, 16)
	mask.Fill(1)
	c := CostPattern(mask, 8, 4)
	if c.Values != 256 {
		t.Fatalf("values %d", c.Values)
	}
	// 4 blocks of 8x8 -> 4 ids; 4 patterns * 1 word each
	if c.Indices != 4+4 {
		t.Fatalf("indices %d", c.Indices)
	}
}

func TestCompressionRatio(t *testing.T) {
	if CompressionRatio(0.5) != 2 {
		t.Fatal("0.5 sparsity should be 2x")
	}
	if !math.IsInf(CompressionRatio(1), 1) {
		t.Fatal("full sparsity should be +Inf")
	}
}

func TestFormatString(t *testing.T) {
	names := map[Format]string{FormatDense: "dense", FormatCOO: "COO", FormatBlockStructured: "block", FormatPattern: "pattern"}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%v", f)
		}
	}
}
