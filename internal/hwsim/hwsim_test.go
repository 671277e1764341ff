package hwsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rt3/internal/dvfs"
	"rt3/internal/mat"
	"rt3/internal/prune"
)

func maskWithSparsity(rows, cols int, sparsity float64, seed int64) *mat.Matrix {
	m := mat.New(rows, cols)
	m.Fill(1)
	rng := rand.New(rand.NewSource(seed))
	n := int(sparsity * float64(rows*cols))
	for _, i := range rng.Perm(rows * cols)[:n] {
		m.Data[i] = 0
	}
	return m
}

func TestLayerCyclesDecreaseWithSparsity(t *testing.T) {
	cm := DefaultCostModel()
	shape := LayerShape{Rows: 64, Cols: 64, Reuse: 16}
	prev := -1.0
	for _, s := range []float64{0.9, 0.7, 0.5, 0.3, 0.0} {
		mask := maskWithSparsity(64, 64, s, 1)
		cost := prune.CostPattern(mask, 8, 4)
		cy := cm.LayerCycles(shape, s, prune.FormatPattern, cost)
		if prev > 0 && cy <= prev {
			t.Fatalf("cycles not increasing as sparsity drops: %g <= %g at s=%g", cy, prev, s)
		}
		prev = cy
	}
}

func TestFormatOrderingAtEqualSparsity(t *testing.T) {
	// Paper's hardware argument: pattern < block < COO at the same
	// sparsity; all should beat dense at 50% sparsity.
	cm := DefaultCostModel()
	shape := LayerShape{Rows: 64, Cols: 64, Reuse: 16}
	sparsity := 0.5
	mask := maskWithSparsity(64, 64, sparsity, 2)
	pat := cm.LayerCycles(shape, sparsity, prune.FormatPattern, prune.CostPattern(mask, 8, 4))
	blk := cm.LayerCycles(shape, sparsity, prune.FormatBlockStructured, prune.CostBlockStructured(mask, prune.BPConfig{Blocks: 4}))
	coo := cm.LayerCycles(shape, sparsity, prune.FormatCOO, prune.CostCOO(mask))
	dense := cm.LayerCycles(shape, 0, prune.FormatDense, prune.CostDense(mask.Rows, mask.Cols))
	if !(pat < blk && blk < coo) {
		t.Fatalf("format ordering violated: pattern %g block %g COO %g", pat, blk, coo)
	}
	if pat >= dense {
		t.Fatalf("50%% pattern-sparse (%g) not faster than dense (%g)", pat, dense)
	}
}

func TestCOOCanLoseToDenseAtLowSparsity(t *testing.T) {
	// The classic irregular-pruning pathology: at low sparsity the index
	// overhead makes COO slower than just running dense.
	cm := DefaultCostModel()
	shape := LayerShape{Rows: 64, Cols: 64, Reuse: 16}
	mask := maskWithSparsity(64, 64, 0.1, 3)
	coo := cm.LayerCycles(shape, 0.1, prune.FormatCOO, prune.CostCOO(mask))
	dense := cm.LayerCycles(shape, 0, prune.FormatDense, prune.CostDense(mask.Rows, mask.Cols))
	if coo <= dense {
		t.Fatalf("COO at 10%% sparsity (%g) should be slower than dense (%g)", coo, dense)
	}
}

func TestLatencyScalesInverselyWithFrequency(t *testing.T) {
	cycles := 1e8
	l1 := dvfs.OdroidXU3Levels[0] // 400 MHz
	l6 := dvfs.OdroidXU3Levels[5] // 1400 MHz
	lat1 := LatencyMS(cycles, l1)
	lat6 := LatencyMS(cycles, l6)
	ratio := lat1 / lat6
	if ratio < 3.4 || ratio > 3.6 { // 1400/400 = 3.5
		t.Fatalf("latency ratio %g, want 3.5", ratio)
	}
}

func TestNumRunsPositiveAndMonotoneInBudget(t *testing.T) {
	pm := dvfs.DefaultPowerModel()
	l := dvfs.OdroidXU3Levels[2]
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b1 := 100 + r.Float64()*1000
		b2 := b1 * 2
		cy := 1e6 + r.Float64()*1e9
		return NumRuns(b2, pm, l, cy) > NumRuns(b1, pm, l, cy) && NumRuns(b1, pm, l, cy) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileSumsLayers(t *testing.T) {
	cm := DefaultCostModel()
	shapes := []LayerShape{
		{Rows: 16, Cols: 16, Reuse: 4},
		{Rows: 16, Cols: 16, Reuse: 4},
	}
	mask := maskWithSparsity(16, 16, 0.5, 4)
	costs := []prune.StorageCost{prune.CostCOO(mask), prune.CostCOO(mask)}
	p := cm.Profile(shapes, []float64{0.5, 0.5}, prune.FormatCOO, costs)
	single := cm.LayerCycles(shapes[0], 0.5, prune.FormatCOO, costs[0])
	want := 2*single + cm.FixedCycles
	if p.Cycles != want {
		t.Fatalf("profile cycles %g want %g", p.Cycles, want)
	}
	if p.DenseMACs != 2*16*16*4 {
		t.Fatalf("dense MACs %g", p.DenseMACs)
	}
}

func TestProfileLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultCostModel().Profile([]LayerShape{{Rows: 2, Cols: 2, Reuse: 1}}, nil, prune.FormatDense, nil)
}

func TestPaperLatencyRegime(t *testing.T) {
	// Sanity: a model in the size class of our LM workload lands in the
	// paper's tens-to-hundreds of ms on the Odroid frequency range.
	cm := DefaultCostModel()
	var shapes []LayerShape
	for i := 0; i < 18; i++ { // ~3 transformer layers x 6 matrices
		shapes = append(shapes, LayerShape{Rows: 64, Cols: 64, Reuse: 24})
	}
	sp := make([]float64, len(shapes))
	costs := make([]prune.StorageCost, len(shapes))
	for i := range costs {
		costs[i] = prune.StorageCost{Format: prune.FormatDense, Values: 64 * 64, TotalWords: 64 * 64}
	}
	p := cm.Profile(shapes, sp, prune.FormatDense, costs)
	lat := LatencyMS(p.Cycles, dvfs.OdroidXU3Levels[2])
	if lat < 0.1 || lat > 2000 {
		t.Fatalf("dense latency %g ms outside plausible regime", lat)
	}
}

func TestLevelCosts(t *testing.T) {
	pm := dvfs.DefaultPowerModel()
	costs := LevelCosts(dvfs.OdroidXU3Levels, pm, 2e6)
	if len(costs) != len(dvfs.OdroidXU3Levels) {
		t.Fatalf("got %d costs, want %d", len(costs), len(dvfs.OdroidXU3Levels))
	}
	// Table I is slowest-first, so relative latency must fall and
	// absolute energy rise toward the last (fastest) level; the
	// normalization anchor is index 0.
	if costs[0].RelLatency != 1 || costs[0].RelEnergy != 1 {
		t.Fatalf("anchor level not normalized: %+v", costs[0])
	}
	for i := 1; i < len(costs); i++ {
		if costs[i].LatencyMS >= costs[i-1].LatencyMS {
			t.Fatalf("latency not decreasing with frequency: %v >= %v", costs[i].LatencyMS, costs[i-1].LatencyMS)
		}
		if costs[i].EnergyJ <= 0 || costs[i].LatencyMS <= 0 {
			t.Fatalf("non-positive cost at %d: %+v", i, costs[i])
		}
	}
	// the fastest level must cost the most energy per inference (higher
	// V and f both raise dynamic energy per cycle)
	last := costs[len(costs)-1]
	if last.EnergyJ <= costs[0].EnergyJ {
		t.Fatalf("fastest level energy %g not above slowest %g", last.EnergyJ, costs[0].EnergyJ)
	}
	if LevelCosts(nil, pm, 2e6) != nil {
		t.Fatal("empty levels should return nil")
	}
}
