package rt3

import (
	"math/rand"
	"sort"

	"rt3/internal/dvfs"
	"rt3/internal/mat"
	"rt3/internal/pattern"
	"rt3/internal/rl"
)

// The Level-2 hyperparameters, at the one value every table, figure and
// CLI of the reproduction runs.
const (
	psize        = 4    // pattern edge: psize x psize weight blocks
	theta        = 3    // θ: candidate pattern sets per V/F level
	numPatterns  = 4    // m: patterns per candidate set
	sparsityStep = 0.08 // sparsity increment when tightening T per level
	maxSparsity  = 0.95 // highest sparsity a candidate may reach
	pickK        = 2    // K: patterns the controller picks per set
	searchEpochs = 1    // ξ: joint-training epochs per episode
	batch        = 8    // mini-batch of the fine-tune, joint and individual training
	lr           = 2e-3 // their Adam learning rate
	rlWidth      = 24   // controller hidden width
	rlLR         = 0.05 // controller learning rate
	accMin       = 0.1  // A_m of Eq. (1)
	penalty      = 0.3  // pen of Eq. (1)
)

// FinalEpochs is the joint-training budget FinalizeSolution commits a
// solution with; the experiments give the upper bound and the
// heuristic baseline the same budget.
const FinalEpochs = 2

// BatteryBudgetJ is the evaluation energy budget: a 10 Wh phone battery.
const BatteryBudgetJ = 36000

// EvalLevels are the three V/F levels the paper selects for evaluation:
// {l3, l4, l6} of Table I, ordered fastest first as the governor expects.
func EvalLevels() []dvfs.Level {
	return []dvfs.Level{
		dvfs.OdroidXU3Levels[5], // l6: F-Mode
		dvfs.OdroidXU3Levels[3], // l4: N-Mode
		dvfs.OdroidXU3Levels[2], // l3: E-Mode
	}
}

// SearchConfig holds what a caller of the Level-2 search sets; the
// paper's hyperparameters are the constants above.
type SearchConfig struct {
	TimingMS float64 // real-time constraint T
	Episodes int

	// CalibrateMS, when > 0, rescales the latency model so the dense
	// model takes this many milliseconds at the fastest level — placing
	// a laptop-scale model into the paper's absolute latency regime so
	// the millisecond timing constraints of Tables II/III apply as-is.
	CalibrateMS float64

	Seed int64
}

// LevelSolution is the configuration chosen for one V/F level.
type LevelSolution struct {
	Level     dvfs.Level
	Candidate int     // index into the search space
	Sparsity  float64 // achieved combined mask sparsity
	LatencyMS float64
	Runs      float64
	Metric    float64
}

// Solution is a complete multi-level configuration with its masks.
type Solution struct {
	Levels      []LevelSolution
	Masks       [][]*mat.Matrix // per level, per prunable param
	Sets        []*pattern.Set  // the K-pattern subsets actually deployed
	Reward      float64
	WeightedAcc float64
	TotalRuns   float64
}

// ExplorationPoint is one explored design for the Fig. 3a Pareto plot.
type ExplorationPoint struct {
	Episode     int
	WeightedAcc float64
	TotalRuns   float64
	Feasible    bool
	Reward      float64
}

// SearchResult carries the best solution and the exploration trace.
type SearchResult struct {
	Best     *Solution
	Explored []ExplorationPoint
	Space    *SearchSpace
}

// ParetoFront extracts the non-dominated feasible points (maximize both
// weighted accuracy and total runs).
func (r *SearchResult) ParetoFront() []ExplorationPoint {
	var feas []ExplorationPoint
	for _, p := range r.Explored {
		if p.Feasible {
			feas = append(feas, p)
		}
	}
	sort.Slice(feas, func(i, j int) bool { return feas[i].WeightedAcc > feas[j].WeightedAcc })
	var front []ExplorationPoint
	bestRuns := -1.0
	for _, p := range feas {
		if p.TotalRuns > bestRuns {
			front = append(front, p)
			bestRuns = p.TotalRuns
		}
	}
	return front
}

// Search runs the Level-2 RL loop on a backbone produced by Level 1:
// sample pattern-set choices, predict latency and runs, joint-train when
// feasible, reward via Eq. (1), and REINFORCE the controller. The
// backbone weights in the task are left unchanged (each episode trains a
// scratch copy); call FinalizeSolution to commit the winner.
func Search(task TaskModel, level1 *Level1Result, cfg SearchConfig) (*SearchResult, error) {
	levels := EvalLevels()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pr := NewPredictor(task)
	if cfg.CalibrateMS > 0 {
		pr.Calibrate(cfg.CalibrateMS, levels[0])
	}

	space, err := BuildSearchSpace(task, level1.Masks, pr, cfg.TimingMS, rng)
	if err != nil {
		return nil, err
	}

	ctrl, err := rl.NewController(rl.Config{
		Hidden:      rlWidth,
		NumSets:     theta,
		NumPatterns: numPatterns,
		Levels:      len(levels),
		K:           pickK,
		LR:          rlLR,
	}, rng)
	if err != nil {
		return nil, err
	}
	baseline := rl.NewBaseline(0.7)

	// normalization for R_runs: the dense model's total runs across the
	// chosen levels, times a headroom factor for what sparsity can buy
	runsNorm := 0.0
	for _, lvl := range levels {
		_, r := pr.Measure(nil, lvl)
		runsNorm += r * 8
	}

	result := &SearchResult{Space: space}
	snapAll := SnapshotWeights(task.Params())

	for ep := 0; ep < cfg.Episodes; ep++ {
		episode := ctrl.Sample(rng)
		sol := assembleSolution(task, level1, space, episode, pr)

		in := rl.RewardInput{
			TimingConstraintMS: cfg.TimingMS,
			AccOriginal:        level1.Metric,
			AccMin:             accMin,
			Penalty:            penalty,
			RunsNorm:           runsNorm,
		}
		for _, ls := range sol.Levels {
			in.LatencyMS = append(in.LatencyMS, ls.LatencyMS)
			in.Runs = append(in.Runs, ls.Runs)
		}

		feasible := true
		for _, ls := range sol.Levels {
			if ls.LatencyMS > cfg.TimingMS {
				feasible = false
				break
			}
		}
		if feasible {
			// fine-tune a scratch copy of the shared backbone
			RestoreWeights(task.Params(), snapAll)
			accs := JointTrain(task, sol.Masks, searchEpochs, rng)
			for i := range sol.Levels {
				sol.Levels[i].Metric = accs[i]
			}
			in.Acc = accs
		}
		res := rl.Reward(in)
		sol.Reward = res.Reward
		sol.WeightedAcc = res.WeightedAcc

		adv := baseline.Update(res.Reward)
		ctrl.Reinforce(episode, adv)

		result.Explored = append(result.Explored, ExplorationPoint{
			Episode:     ep,
			WeightedAcc: res.WeightedAcc,
			TotalRuns:   sol.TotalRuns,
			Feasible:    feasible,
			Reward:      res.Reward,
		})
		if feasible && (result.Best == nil || sol.Reward > result.Best.Reward) {
			result.Best = sol
		}
	}
	RestoreWeights(task.Params(), snapAll)
	if result.Best == nil {
		// fall back to the heuristic choice so callers always get a plan
		sol, err := HeuristicSolution(task, level1, space, cfg.TimingMS, pr)
		if err != nil {
			return nil, err
		}
		result.Best = sol
	}
	return result, nil
}

// assembleSolution realizes an RL episode into masks and predictions.
func assembleSolution(task TaskModel, level1 *Level1Result, space *SearchSpace,
	episode *rl.Episode, pr *Predictor) *Solution {

	prunable := task.PrunableParams()
	sol := &Solution{}
	for li, lvl := range EvalLevels() {
		ci := space.CandidateFor(li, episode.SetChoices[li])
		cand := space.Candidates[ci]
		sub := subset(cand.Set, episode.PatternChoices[li])
		masks := BuildMasks(prunable, level1.Masks, sub)
		lat, runs := pr.Measure(masks, lvl)
		sol.addLevel(lvl, ci, sub, masks, lat, runs)
	}
	return sol
}

// addLevel appends one level's chosen set, its masks and their
// prediction to the solution.
func (sol *Solution) addLevel(lvl dvfs.Level, ci int, set *pattern.Set, masks []*mat.Matrix, lat, runs float64) {
	sol.Levels = append(sol.Levels, LevelSolution{
		Level: lvl, Candidate: ci, Sparsity: combinedSparsity(masks), LatencyMS: lat, Runs: runs,
	})
	sol.Masks = append(sol.Masks, masks)
	sol.Sets = append(sol.Sets, set)
	sol.TotalRuns += runs
}

// subset picks the K chosen patterns out of a candidate set (dedup,
// order-preserving).
func subset(set *pattern.Set, choices []int) *pattern.Set {
	out := &pattern.Set{Sparsity: set.Sparsity}
	seen := map[int]bool{}
	for _, c := range choices {
		c %= len(set.Patterns)
		if seen[c] {
			continue
		}
		seen[c] = true
		out.Patterns = append(out.Patterns, set.Patterns[c])
	}
	if len(out.Patterns) == 0 {
		out.Patterns = append(out.Patterns, set.Patterns[0])
	}
	return out
}

func combinedSparsity(masks []*mat.Matrix) float64 {
	var zeros, total int
	for _, m := range masks {
		total += len(m.Data)
		for _, v := range m.Data {
			if v == 0 {
				zeros++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(zeros) / float64(total)
}

// HeuristicSolution is the baseline of Fig. 3(b)-(c): for each V/F level
// pick the candidate whose sparsity just satisfies the timing constraint
// and use its first K patterns.
func HeuristicSolution(task TaskModel, level1 *Level1Result, space *SearchSpace,
	timingMS float64, pr *Predictor) (*Solution, error) {

	return candidateSolution(task, level1, space, timingMS, pr, func(c Candidate) *pattern.Set {
		return &pattern.Set{Sparsity: c.Sparsity, Patterns: c.Set.Patterns[:min(pickK, len(c.Set.Patterns))]}
	})
}

// candidateSolution walks each level's candidates in ascending sparsity,
// realizing each as setFor's set over the backbone, and keeps the first
// that meets T.
func candidateSolution(task TaskModel, level1 *Level1Result, space *SearchSpace, timingMS float64,
	pr *Predictor, setFor func(Candidate) *pattern.Set) (*Solution, error) {

	prunable := task.PrunableParams()
	sol := &Solution{}
	for li, lvl := range EvalLevels() {
		opts := space.PerLevel[li]
		f, err := pr.firstFeasible(prunable, level1.Masks, lvl, timingMS, len(opts), func(i int) *pattern.Set {
			return setFor(space.Candidates[opts[i]])
		})
		if err != nil {
			return nil, err
		}
		sol.addLevel(lvl, opts[f.i], f.set, f.masks, f.lat, f.runs)
	}
	return sol, nil
}

// FinalizeSolution commits a solution: joint-trains the task's backbone
// through the solution's masks for FinalEpochs and fills in the final
// per-level metrics.
func FinalizeSolution(task TaskModel, sol *Solution, rng *rand.Rand) {
	accs := JointTrain(task, sol.Masks, FinalEpochs, rng)
	sol.WeightedAcc = 0
	for i := range sol.Levels {
		sol.Levels[i].Metric = accs[i]
		sol.WeightedAcc += accs[i] / float64(len(accs))
	}
}
