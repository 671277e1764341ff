package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"rt3/internal/prune"
	"rt3/internal/rt3"
)

// Figure3aResult holds the search-space exploration of Fig. 3(a): the
// Pareto frontiers under a loose and a tight timing constraint.
type Figure3aResult struct {
	LooseMS, TightMS float64
	LooseFront       []rt3.ExplorationPoint
	TightFront       []rt3.ExplorationPoint
	LooseExplored    int
	TightExplored    int
}

// Figure3a runs the RL exploration twice on the WikiText-2-style task —
// loose (104 ms) and tight (94 ms) constraints — and extracts the Pareto
// frontiers in the (weighted accuracy, number of runs) plane.
func Figure3a(s Scale) (*Figure3aResult, error) {
	task := NewLMTask(s, 51)
	rng := rand.New(rand.NewSource(52))
	l1, err := rt3.RunLevel1(task, 0.3, rng)
	if err != nil {
		return nil, err
	}
	out := &Figure3aResult{LooseMS: 104, TightMS: 94}

	resLoose, err := rt3.Search(task, l1, DefaultSearch(s, out.LooseMS, 160, 53))
	if err != nil {
		return nil, err
	}
	// same seed: same candidates
	resTight, err := rt3.Search(task, l1, DefaultSearch(s, out.TightMS, 160, 53))
	if err != nil {
		return nil, err
	}
	out.LooseFront = resLoose.ParetoFront()
	out.TightFront = resTight.ParetoFront()
	out.LooseExplored = len(resLoose.Explored)
	out.TightExplored = len(resTight.Explored)
	return out, nil
}

// String renders both frontiers as point lists.
func (r *Figure3aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3(a): Pareto frontiers (weighted accuracy vs # of runs)\n")
	write := func(label string, t float64, front []rt3.ExplorationPoint, explored int) {
		fmt.Fprintf(&b, "%s constraint (%.0f ms), %d explored, %d on front:\n", label, t, explored, len(front))
		for _, p := range front {
			fmt.Fprintf(&b, "  acc=%.4f  runs=%.0f\n", p.WeightedAcc, p.TotalRuns)
		}
	}
	write("Loose", r.LooseMS, r.LooseFront, r.LooseExplored)
	write("Tight", r.TightMS, r.TightFront, r.TightExplored)
	return b.String()
}

// Figure3Point is one (sparsity, metric) sample of Fig. 3(b)/(c).
type Figure3Point struct {
	Sparsity float64
	Metric   float64
}

// Figure3bcResult holds the best-solution comparison of Fig. 3(b)-(c):
// RT3 vs the accuracy upper bound vs the heuristic baseline, with the
// original and BP-backbone accuracies as horizontal references.
type Figure3bcResult struct {
	TimingMS    float64
	OriginalAcc float64
	BackboneAcc float64
	RT3         []Figure3Point
	UpperBound  []Figure3Point
	Heuristic   []Figure3Point
}

// Figure3bc reproduces one panel of Fig. 3(b)/(c) for the given timing
// constraint (104 ms for panel b, 94 ms for panel c).
func Figure3bc(s Scale, timingMS float64) (*Figure3bcResult, error) {
	task := NewLMTask(s, 61)
	rng := rand.New(rand.NewSource(62))
	orig := task.Evaluate()
	l1, err := rt3.RunLevel1(task, 0.3, rng)
	if err != nil {
		return nil, err
	}
	res, err := rt3.Search(task, l1, DefaultSearch(s, timingMS, 160, 63))
	if err != nil {
		return nil, err
	}
	sol := res.Best

	// Each strategy trains from the same backbone snapshot so the
	// comparison is budget-fair.
	backbone := rt3.SnapshotWeights(task.Params())
	rt3.FinalizeSolution(task, sol, rng)
	rt3Weights := rt3.SnapshotWeights(task.Params())

	rt3.RestoreWeights(task.Params(), backbone)
	ub := rt3.IndividualTrain(task, sol.Masks, rt3.FinalEpochs, rng)

	pr := CalibratedPredictor(task, 160)
	heuSol, err := rt3.HeuristicSolution(task, l1, res.Space, timingMS, pr)
	if err != nil {
		return nil, err
	}
	rt3.RestoreWeights(task.Params(), backbone)
	heuAccs := rt3.JointTrain(task, heuSol.Masks, rt3.FinalEpochs, rng)
	rt3.RestoreWeights(task.Params(), rt3Weights)

	out := &Figure3bcResult{TimingMS: timingMS, OriginalAcc: orig, BackboneAcc: l1.Metric}
	for i, ls := range sol.Levels {
		out.RT3 = append(out.RT3, Figure3Point{Sparsity: ls.Sparsity, Metric: ls.Metric})
		out.UpperBound = append(out.UpperBound, Figure3Point{Sparsity: ls.Sparsity, Metric: ub[i]})
	}
	for i, ls := range heuSol.Levels {
		out.Heuristic = append(out.Heuristic, Figure3Point{Sparsity: ls.Sparsity, Metric: heuAccs[i]})
	}
	return out, nil
}

// String renders the panel as aligned series.
func (r *Figure3bcResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3(b/c): best solution under T = %.0f ms\n", r.TimingMS)
	fmt.Fprintf(&b, "original accuracy: %.4f   block-pruning backbone: %.4f\n", r.OriginalAcc, r.BackboneAcc)
	series := func(name string, pts []Figure3Point) {
		fmt.Fprintf(&b, "%-12s", name)
		for _, p := range pts {
			fmt.Fprintf(&b, "  (%.2f, %.4f)", p.Sparsity, p.Metric)
		}
		b.WriteByte('\n')
	}
	series("UB", r.UpperBound)
	series("RT3", r.RT3)
	series("Heuristic", r.Heuristic)
	return b.String()
}

// Figure4Result carries the identified patterns per V/F level for the
// visualization of Fig. 4.
type Figure4Result struct {
	Levels     []string
	Sparsities []float64
	Rendered   []string // ASCII art per level ('#' kept, '.' pruned)
}

// Figure4 extracts the first pattern of each level's deployed set from a
// completed search on the LM task (the paper visualizes the first
// encoder's self-attention layer).
func Figure4(s Scale) (*Figure4Result, error) {
	task := NewLMTask(s, 71)
	rng := rand.New(rand.NewSource(72))
	l1, err := rt3.RunLevel1(task, 0.3, rng)
	if err != nil {
		return nil, err
	}
	res, err := rt3.Search(task, l1, DefaultSearch(s, 104, 160, 73))
	if err != nil {
		return nil, err
	}
	out := &Figure4Result{}
	for i, set := range res.Best.Sets {
		out.Levels = append(out.Levels, res.Best.Levels[i].Level.Name)
		out.Sparsities = append(out.Sparsities, set.Patterns[0].Sparsity())
		out.Rendered = append(out.Rendered, set.Patterns[0].String())
	}
	return out, nil
}

// String renders the patterns side by side with their sparsities.
func (r *Figure4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: identified patterns per V/F level ('#' kept, '.' pruned)\n")
	for i := range r.Levels {
		fmt.Fprintf(&b, "(%c) level %s, sparsity = %.0f%%\n%s",
			'a'+i, r.Levels[i], r.Sparsities[i]*100, r.Rendered[i])
	}
	return b.String()
}

// Figure5Row is one task of Fig. 5.
type Figure5Row struct {
	Task      string
	Metric    string
	Original  float64
	AfterBP   float64
	PruneRate float64 // compression ratio (paper annotates 1.2x..2.8x)
	ScoreLoss float64
}

// Figure5Result evaluates BP across the nine GLUE tasks plus WikiText-2.
type Figure5Result struct {
	Rows []Figure5Row
}

// Figure5 reproduces the BP evaluation of Fig. 5: per task, the original
// score, the score after block-structured pruning with fine-tuning, and
// the achieved compression rate.
func Figure5(s Scale) (*Figure5Result, error) {
	out := &Figure5Result{}
	bar := func(name string, task rt3.TaskModel, seed int64) error {
		orig := task.Evaluate()
		l1, err := rt3.RunLevel1(task, 0.4, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, Figure5Row{
			Task: name, Metric: task.MetricName(),
			Original: orig, AfterBP: l1.Metric,
			PruneRate: prune.CompressionRatio(l1.Sparsity),
			ScoreLoss: orig - l1.Metric,
		})
		return nil
	}
	for i, name := range glueNames {
		if err := bar(name, NewGLUETaskModel(s, name, int64(81+i)), int64(91+i)); err != nil {
			return nil, err
		}
	}
	if err := bar("WikiText-2", NewLMTask(s, 99), 100); err != nil {
		return nil, err
	}
	return out, nil
}

var glueNames = []string{"MNLI", "QQP", "QNLI", "SST-2", "CoLA", "STS-B", "MRPC", "RTE", "WNLI"}

// String renders Fig. 5 as a table (original vs BP bars with rates).
func (r *Figure5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5: block-structured pruning across GLUE + WikiText-2\n")
	fmt.Fprintf(&b, "%-12s %-10s %10s %10s %8s %8s\n", "Task", "Metric", "Original", "BP", "Rate", "Loss")
	b.WriteString(ReportSeparator + "\n")
	var lossSum float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-10s %10.4f %10.4f %7.1fx %8.4f\n",
			row.Task, row.Metric, row.Original, row.AfterBP, row.PruneRate, row.ScoreLoss)
		lossSum += row.ScoreLoss
	}
	fmt.Fprintf(&b, "mean score loss: %.4f\n", lossSum/float64(len(r.Rows)))
	return b.String()
}
