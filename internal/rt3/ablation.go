package rt3

import (
	"fmt"
	"math/rand"

	"rt3/internal/pattern"
	"rt3/internal/prune"
)

// Method identifies one column of the paper's Table IV ablation.
type Method int

// Ablation methods, in Table IV order.
const (
	MethodNoOpt Method = iota // original dense model
	MethodRBPOnly
	MethodRBPRPP
	MethodRBPPP
	MethodBPOnly
	MethodRT3
)

// String names the method as in Table IV.
func (m Method) String() string {
	switch m {
	case MethodNoOpt:
		return "No-Opt"
	case MethodRBPOnly:
		return "rBP only"
	case MethodRBPRPP:
		return "rBP+rPP"
	case MethodRBPPP:
		return "rBP+PP"
	case MethodBPOnly:
		return "BP only"
	case MethodRT3:
		return "RT3"
	}
	return "unknown"
}

// AllMethods lists Table IV's columns in order.
var AllMethods = []Method{MethodNoOpt, MethodRBPOnly, MethodRBPRPP, MethodRBPPP, MethodBPOnly, MethodRT3}

// AblationRow is one method's results in Table IV's row structure.
type AblationRow struct {
	Method      Method
	AvgSparsity float64
	Runs        float64 // total number of runs across the V/F levels
	Improvement float64 // Runs / Runs(No-Opt)
	AvgMetric   float64
	MetricLoss  float64 // Metric(No-Opt) - AvgMetric
}

// AblationConfig bundles everything an ablation needs. TaskFactory must
// return a freshly constructed AND pre-trained task each call (training
// mutates weights, so each method starts from an identical model).
type AblationConfig struct {
	TaskFactory func() TaskModel
	Percentile  float64 // BP percentile of Level 1
	Search      SearchConfig
}

// RunAblation reproduces Table IV for one dataset/task: every method is
// evaluated for average sparsity, total number of runs within the energy
// budget (split equally across the V/F levels), improvement over No-Opt
// and metric loss.
func RunAblation(cfg AblationConfig) ([]AblationRow, error) {
	var rows []AblationRow
	var denseRuns, denseMetric float64
	for _, m := range AllMethods {
		row, err := runMethod(m, cfg)
		if err != nil {
			return nil, fmt.Errorf("rt3: ablation %s: %w", m, err)
		}
		if m == MethodNoOpt {
			denseRuns = row.Runs
			denseMetric = row.AvgMetric
		}
		if denseRuns > 0 {
			row.Improvement = row.Runs / denseRuns
		}
		row.MetricLoss = denseMetric - row.AvgMetric
		rows = append(rows, *row)
	}
	return rows, nil
}

func runMethod(m Method, cfg AblationConfig) (*AblationRow, error) {
	task := cfg.TaskFactory()
	sCfg := cfg.Search
	levels := EvalLevels()
	rng := rand.New(rand.NewSource(sCfg.Seed + int64(m)*101))
	pr := NewPredictor(task)
	if sCfg.CalibrateMS > 0 {
		pr.Calibrate(sCfg.CalibrateMS, levels[0])
	}
	budgetPerLevel := BatteryBudgetJ / float64(len(levels))

	switch m {
	case MethodNoOpt:
		runs := 0.0
		for _, lvl := range levels {
			cy := pr.Cycles(nil)
			runs += budgetPerLevel / pr.Power.InferenceEnergy(lvl, cy)
		}
		return &AblationRow{Method: m, AvgSparsity: 0, Runs: runs, AvgMetric: task.Evaluate()}, nil

	case MethodRBPOnly, MethodBPOnly:
		var l1 *Level1Result
		var err error
		if m == MethodBPOnly {
			l1, err = RunLevel1(task, cfg.Percentile, rng)
		} else {
			l1, err = RunRandomLevel1(task, cfg.Percentile, rng)
		}
		if err != nil {
			return nil, err
		}
		pr.Format = prune.FormatBlockStructured
		runs := 0.0
		for _, lvl := range levels {
			cy := pr.Cycles(l1.Masks)
			runs += budgetPerLevel / pr.Power.InferenceEnergy(lvl, cy)
		}
		return &AblationRow{Method: m, AvgSparsity: l1.Sparsity, Runs: runs, AvgMetric: l1.Metric}, nil

	case MethodRBPRPP:
		l1, err := RunRandomLevel1(task, cfg.Percentile, rng)
		if err != nil {
			return nil, err
		}
		return patternMethod(task, l1, sCfg.TimingMS, pr, rng)

	case MethodRBPPP:
		l1, err := RunRandomLevel1(task, cfg.Percentile, rng)
		if err != nil {
			return nil, err
		}
		return searchMethod(m, task, l1, sCfg, pr, rng)

	case MethodRT3:
		l1, err := RunLevel1(task, cfg.Percentile, rng)
		if err != nil {
			return nil, err
		}
		return searchMethod(m, task, l1, sCfg, pr, rng)
	}
	return nil, fmt.Errorf("rt3: unknown method %v", m)
}

// patternMethod realizes the rBP+rPP baseline: per level, a random
// K-pattern set at the sparsity of the level's first candidate whose
// latency fits, jointly trained.
func patternMethod(task TaskModel, l1 *Level1Result, timingMS float64, pr *Predictor, rng *rand.Rand) (*AblationRow, error) {
	space, err := BuildSearchSpace(task, l1.Masks, pr, timingMS, rng)
	if err != nil {
		return nil, err
	}
	sol, err := candidateSolution(task, l1, space, timingMS, pr, func(c Candidate) *pattern.Set {
		return pattern.RandomSet(psize, c.Sparsity, pickK, rng)
	})
	if err != nil {
		return nil, err
	}
	for i, acc := range JointTrain(task, sol.Masks, searchEpochs, rng) {
		sol.Levels[i].Metric = acc
	}
	return solutionRow(MethodRBPRPP, sol, pr), nil
}

// searchMethod runs the full Level-2 RL search on the given backbone.
func searchMethod(m Method, task TaskModel, l1 *Level1Result, sCfg SearchConfig, pr *Predictor, rng *rand.Rand) (*AblationRow, error) {
	res, err := Search(task, l1, sCfg)
	if err != nil {
		return nil, err
	}
	FinalizeSolution(task, res.Best, rng)
	return solutionRow(m, res.Best, pr), nil
}

// solutionRow is a solution's Table IV row: the runs each level's equal
// share of the budget buys, summed, and the levels' mean sparsity and
// metric.
func solutionRow(m Method, sol *Solution, pr *Predictor) *AblationRow {
	budgetPerLevel := BatteryBudgetJ / float64(len(sol.Levels))
	runs := 0.0
	var sparsSum, accSum float64
	for i, ls := range sol.Levels {
		cy := pr.Cycles(sol.Masks[i])
		runs += budgetPerLevel / pr.Power.InferenceEnergy(ls.Level, cy)
		sparsSum += ls.Sparsity
		accSum += ls.Metric
	}
	n := float64(len(sol.Levels))
	return &AblationRow{Method: m, AvgSparsity: sparsSum / n, Runs: runs, AvgMetric: accSum / n}
}
