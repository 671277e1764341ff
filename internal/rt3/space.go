package rt3

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rt3/internal/dvfs"
	"rt3/internal/hwsim"
	"rt3/internal/mat"
	"rt3/internal/nn"
	"rt3/internal/pattern"
	"rt3/internal/prune"
)

// Predictor is the performance-predictor half of component ④: it turns a
// concrete set of per-parameter masks into predicted latency and number
// of runs at any V/F level, via the hwsim cycle model.
type Predictor struct {
	Cost   hwsim.CostModel
	Power  dvfs.PowerModel
	Shapes []hwsim.LayerShape
	// Format is the sparse execution layout: FormatPattern for RT3,
	// FormatBlockStructured for the BP-only ablations.
	Format prune.Format
	// ScaleFactor accumulates Calibrate rescalings; experiments use it to
	// scale deployed model bytes into the paper's size class.
	ScaleFactor float64
}

// NewPredictor builds a predictor for the prunable parameters of a task,
// counting runs within BatteryBudgetJ.
func NewPredictor(task TaskModel) *Predictor {
	var shapes []hwsim.LayerShape
	for _, p := range task.PrunableParams() {
		shapes = append(shapes, hwsim.LayerShape{
			Rows: p.Value.Rows, Cols: p.Value.Cols, Reuse: task.SeqLen(),
		})
	}
	return &Predictor{
		Cost:        hwsim.DefaultCostModel(),
		Power:       dvfs.DefaultPowerModel(),
		Shapes:      shapes,
		Format:      prune.FormatPattern,
		ScaleFactor: 1,
	}
}

// Calibrate rescales the cost model so the dense model's latency at the
// reference level equals targetMS, returning the scale factor applied.
// The paper measures full-size Transformers on the Odroid-XU3; this
// reproduction's models are orders of magnitude smaller, so experiments
// calibrate the dense point into the paper's regime (e.g. ~115 ms at l6,
// Table II) and keep every relative comparison intact. The same factor
// scales deployed model bytes for switch-cost accounting.
func (pr *Predictor) Calibrate(targetMS float64, level dvfs.Level) float64 {
	cur := hwsim.LatencyMS(pr.Cycles(nil), level)
	if cur <= 0 {
		return 1
	}
	f := targetMS / cur
	pr.Cost.CyclesPerMAC *= f
	pr.Cost.CyclesPerIndexWord *= f
	pr.Cost.MemWordsPerCycle /= f
	pr.Cost.FixedCycles *= f
	pr.ScaleFactor *= f
	return f
}

// Measure returns (latencyMS, runs) for executing the model with the
// given per-parameter masks at the given level. masks must align with
// the predictor's shapes; nil masks mean dense.
func (pr *Predictor) Measure(masks []*mat.Matrix, level dvfs.Level) (float64, float64) {
	cycles := pr.Cycles(masks)
	lat := hwsim.LatencyMS(cycles, level)
	runs := hwsim.NumRuns(BatteryBudgetJ, pr.Power, level, cycles)
	return lat, runs
}

// Cycles returns the modelled execution cycles for the masked model.
func (pr *Predictor) Cycles(masks []*mat.Matrix) float64 {
	sparsities := make([]float64, len(pr.Shapes))
	costs := make([]prune.StorageCost, len(pr.Shapes))
	for i, s := range pr.Shapes {
		if masks == nil || masks[i] == nil {
			costs[i] = prune.CostDense(s.Rows, s.Cols)
			continue
		}
		sparsities[i] = masks[i].Sparsity()
		if pr.Format == prune.FormatBlockStructured {
			costs[i] = prune.CostBlockStructured(masks[i], prune.BPConfig{Blocks: bpBlocks})
		} else {
			costs[i] = prune.CostPattern(masks[i], psize, numPatterns)
		}
	}
	f := pr.Format
	if masks == nil {
		f = prune.FormatDense
	}
	return pr.Cost.Profile(pr.Shapes, sparsities, f, costs).Cycles
}

// Candidate is one entry of the shrunken search space: a sparsity ratio
// with its heuristically generated pattern set.
type Candidate struct {
	Sparsity float64
	Set      *pattern.Set
}

// SearchSpace is the Level-2 pattern-pruning search space (component ③):
// theta * N candidate pattern sets with diverse sparsity, built from the
// Level-1 backbone. PerLevel[i] indexes the θ candidates offered to
// V/F level i (its just-feasible sparsity plus progressively tighter
// ratios), which is what makes the space "shrunken": the controller
// never considers a set that is hopeless for the level it serves.
type SearchSpace struct {
	Candidates []Candidate
	PerLevel   [][]int
}

// BuildSearchSpace predicts, for each V/F level of EvalLevels, the
// smallest sparsity whose pattern-pruned model meets the timing
// constraint T, then tightens in sparsityStep increments to collect θ
// ratios per level ("we gradually tight the constraints to involve
// theta*N sparsity ratios in total"), generating an m-pattern set for
// each ratio from the backbone weights.
func BuildSearchSpace(task TaskModel, bpMasks []*mat.Matrix, pr *Predictor,
	timingMS float64, rng *rand.Rand) (*SearchSpace, error) {

	levels := EvalLevels()
	prunable := task.PrunableParams()
	ratioSet := map[int]bool{} // sparsity in integer percent, deduplicated
	perLevelRatios := make([][]int, len(levels))
	for li, lvl := range levels {
		set, _, err := MinFeasibleSparsity(prunable, bpMasks, pr, lvl, timingMS, rng)
		if err != nil {
			return nil, err
		}
		base := set.Sparsity
		for t := 0; t < theta; t++ {
			s := base + float64(t)*sparsityStep
			if s > maxSparsity {
				s = maxSparsity
			}
			key := int(s*100 + 0.5)
			ratioSet[key] = true
			perLevelRatios[li] = append(perLevelRatios[li], key)
		}
	}
	var keys []int
	for r := range ratioSet {
		keys = append(keys, r)
	}
	sort.Ints(keys)
	keyIndex := make(map[int]int, len(keys))

	space := &SearchSpace{}
	ref := referenceMatrix(prunable)
	for i, r := range keys {
		keyIndex[r] = i
		set := pattern.GenerateSet(ref, psize, float64(r)/100, numPatterns, rng)
		space.Candidates = append(space.Candidates, Candidate{Sparsity: float64(r) / 100, Set: set})
	}
	if len(space.Candidates) == 0 {
		return nil, fmt.Errorf("rt3: empty search space (timing %gms unreachable?)", timingMS)
	}
	space.PerLevel = make([][]int, len(levels))
	for li, rs := range perLevelRatios {
		for _, r := range rs {
			space.PerLevel[li] = append(space.PerLevel[li], keyIndex[r])
		}
	}
	return space, nil
}

// CandidateFor resolves the controller's per-level choice into a global
// candidate index.
func (s *SearchSpace) CandidateFor(level, choice int) int {
	opts := s.PerLevel[level]
	return opts[choice%len(opts)]
}

// referenceMatrix picks the largest prunable weight matrix as the source
// of importance maps (the paper samples blocks of the backbone C).
func referenceMatrix(prunable []*nn.Parameter) *mat.Matrix {
	var best *mat.Matrix
	for _, p := range prunable {
		if best == nil || p.Value.Rows*p.Value.Cols > best.Rows*best.Cols {
			best = p.Value
		}
	}
	return best
}

// MinFeasibleSparsity is a V/F level's just-feasible point, the anchor
// of its θ candidates: the lowest sparsity, scanned upward from 0 in
// sparsityStep increments, whose one-pattern set from the largest
// prunable matrix (intersected with bpMasks, when given) meets T at the
// level. It returns that set (its Sparsity is the point) and the masks
// that meet T.
func MinFeasibleSparsity(prunable []*nn.Parameter, bpMasks []*mat.Matrix, pr *Predictor,
	level dvfs.Level, timingMS float64, rng *rand.Rand) (*pattern.Set, []*mat.Matrix, error) {

	ref := referenceMatrix(prunable)
	steps := int(math.Floor(maxSparsity/sparsityStep)) + 1 // 0, sparsityStep, ... up to maxSparsity
	f, err := pr.firstFeasible(prunable, bpMasks, level, timingMS, steps, func(i int) *pattern.Set {
		return pattern.GenerateSet(ref, psize, float64(i)*sparsityStep, 1, rng)
	})
	if err != nil {
		return nil, nil, err
	}
	return f.set, f.masks, nil
}

// feasibleSet is the set a feasibility walk stopped at: its index in the
// walk, its masks and their predicted latency and runs.
type feasibleSet struct {
	i         int
	set       *pattern.Set
	masks     []*mat.Matrix
	lat, runs float64
}

// firstFeasible is the one walk behind every "first set that meets T at
// a level" of the module: the search space's anchors, the heuristic
// baseline and the rPP ablation. It builds the masks of setAt(0),
// setAt(1), ... in turn, at most n of them, and stops at the first whose
// predicted latency at the level meets T. setAt is called once per
// index, in order, so a caller drawing from an rng keeps its draw order.
func (pr *Predictor) firstFeasible(prunable []*nn.Parameter, bpMasks []*mat.Matrix, level dvfs.Level,
	timingMS float64, n int, setAt func(i int) *pattern.Set) (feasibleSet, error) {

	for i := 0; i < n; i++ {
		set := setAt(i)
		masks := BuildMasks(prunable, bpMasks, set)
		if lat, runs := pr.Measure(masks, level); lat <= timingMS {
			return feasibleSet{i, set, masks, lat, runs}, nil
		}
	}
	return feasibleSet{}, fmt.Errorf("rt3: no candidate meets %.1fms at %s", timingMS, level.Name)
}

// BuildMasks applies a pattern set to every prunable parameter of the
// backbone and intersects with the BP masks, yielding the final
// per-parameter execution masks for one V/F level.
func BuildMasks(prunable []*nn.Parameter, bpMasks []*mat.Matrix, set *pattern.Set) []*mat.Matrix {
	masks := make([]*mat.Matrix, len(prunable))
	for i, p := range prunable {
		m, _ := set.Apply(p.Value)
		if bpMasks != nil && bpMasks[i] != nil {
			m = pattern.CombineWithBackbone(m, bpMasks[i])
		}
		masks[i] = m
	}
	return masks
}
