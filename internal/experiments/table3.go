package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"rt3/internal/rt3"
	"rt3/internal/rtswitch"
)

// Table3Spec names one column group of Table III.
type Table3Spec struct {
	Dataset  string  // "WikiText-2", "RTE" or "STS-B"
	TimingMS float64 // the paper's T: 94/104 (WikiText-2), 200 (RTE), 330 (STS-B)
	// DenseMS calibrates the dense model's latency at l6.
	DenseMS float64
	Seed    int64
}

// DefaultTable3Specs lists the four configurations of the paper's
// Table III.
func DefaultTable3Specs() []Table3Spec {
	return []Table3Spec{
		{Dataset: "WikiText-2", TimingMS: 94, DenseMS: 160, Seed: 41},
		{Dataset: "WikiText-2", TimingMS: 104, DenseMS: 160, Seed: 42},
		{Dataset: "RTE", TimingMS: 200, DenseMS: 330, Seed: 43},
		{Dataset: "STS-B", TimingMS: 330, DenseMS: 430, Seed: 44},
	}
}

// Table3SubModel is one sub-model column (M1/M2/M3).
type Table3SubModel struct {
	Level     string
	Sparsity  float64
	LatencyMS float64
	UBMetric  float64
	RT3Metric float64
	MetricGap float64
}

// Table3Result is one column group of Table III.
type Table3Result struct {
	Spec          Table3Spec
	MetricName    string
	SubModels     []Table3SubModel
	UBInterruptMS float64 // full-model reload time (seconds-scale)
	RTInterruptMS float64 // pattern-set switch time (milliseconds-scale)
}

// TableIII runs the full RT3 AutoML pipeline for one spec: Level-1 BP,
// Level-2 RL search, joint training (RT3 numbers), individual training
// (UB numbers), and the switch-time accounting for both deployment
// styles.
func TableIII(s Scale, spec Table3Spec) (*Table3Result, error) {
	var task rt3.TaskModel
	if spec.Dataset == "WikiText-2" {
		task = NewLMTask(s, spec.Seed)
	} else {
		task = NewGLUETaskModel(s, spec.Dataset, spec.Seed)
	}
	rng := rand.New(rand.NewSource(spec.Seed + 100))

	l1, err := rt3.RunLevel1(task, 0.3, rng)
	if err != nil {
		return nil, err
	}
	res, err := rt3.Search(task, l1, DefaultSearch(s, spec.TimingMS, spec.DenseMS, spec.Seed+200))
	if err != nil {
		return nil, err
	}
	sol := res.Best

	// RT3: joint training of the shared backbone; UB: individual training
	// per sub-model with the same per-model epoch budget.
	rt3.FinalizeSolution(task, sol, rng)
	ubMetrics := rt3.IndividualTrain(task, sol.Masks, rt3.FinalEpochs, rng)

	// switch-time accounting
	pr := CalibratedPredictor(task, spec.DenseMS)
	costs := rtswitch.DefaultSwitchCostModel()
	modelBytes := ModelBytes(task, pr)
	maskBytes := deployedMaskBytes(task, sol, pr)

	out := &Table3Result{
		Spec:          spec,
		MetricName:    task.MetricName(),
		UBInterruptMS: costs.ModelSwitchMS(modelBytes),
		RTInterruptMS: costs.PatternSwitchMS(maskBytes),
	}
	for i, ls := range sol.Levels {
		out.SubModels = append(out.SubModels, Table3SubModel{
			Level:     ls.Level.Name,
			Sparsity:  ls.Sparsity,
			LatencyMS: ls.LatencyMS,
			UBMetric:  ubMetrics[i],
			RT3Metric: ls.Metric,
			MetricGap: ubMetrics[i] - ls.Metric,
		})
	}
	return out, nil
}

// deployedMaskBytes estimates the run-time bytes of one pattern-set
// switch: the pattern bitmasks plus one pattern-id byte per block of
// every prunable matrix, scaled into the paper's model-size class.
func deployedMaskBytes(task rt3.TaskModel, sol *rt3.Solution, pr *rt3.Predictor) int {
	if len(sol.Sets) == 0 {
		return 0
	}
	set := sol.Sets[0]
	psize := set.PSize()
	blocks := 0
	for _, p := range task.PrunableParams() {
		blocks += ((p.Value.Rows + psize - 1) / psize) * ((p.Value.Cols + psize - 1) / psize)
	}
	raw := set.MaskBytes() + blocks
	return int(float64(raw) * pr.ScaleFactor)
}

// String formats one Table III column group like the paper.
func (r *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: %s (T: %.0fms), metric %s\n", r.Spec.Dataset, r.Spec.TimingMS, r.MetricName)
	fmt.Fprintf(&b, "%-14s", "Models")
	for i := range r.SubModels {
		fmt.Fprintf(&b, "%12s", fmt.Sprintf("M%d(%s)", i+1, r.SubModels[i].Level))
	}
	b.WriteString("\n" + ReportSeparator + "\n")
	row := func(label string, f func(sm Table3SubModel) string) {
		fmt.Fprintf(&b, "%-14s", label)
		for _, sm := range r.SubModels {
			fmt.Fprintf(&b, "%12s", f(sm))
		}
		b.WriteByte('\n')
	}
	row("Sparsity", func(sm Table3SubModel) string { return fmt.Sprintf("%.2f%%", sm.Sparsity*100) })
	row("Latency (ms)", func(sm Table3SubModel) string { return fmt.Sprintf("%.2f", sm.LatencyMS) })
	row("UB metric", func(sm Table3SubModel) string { return fmt.Sprintf("%.4f", sm.UBMetric) })
	row("RT3 metric", func(sm Table3SubModel) string { return fmt.Sprintf("%.4f", sm.RT3Metric) })
	row("Metric gap", func(sm Table3SubModel) string { return fmt.Sprintf("%.4f", sm.MetricGap) })
	fmt.Fprintf(&b, "UB interrupt:  %.2f seconds (full model reload)\n", r.UBInterruptMS/1000)
	fmt.Fprintf(&b, "RT3 interrupt: %.2f milliseconds (pattern-set switch)\n", r.RTInterruptMS)
	fmt.Fprintf(&b, "Switch speedup: %.0fx\n", r.UBInterruptMS/r.RTInterruptMS)
	return b.String()
}
