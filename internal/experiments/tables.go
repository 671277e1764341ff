package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"rt3/internal/dvfs"
	"rt3/internal/rt3"
	"rt3/internal/rtswitch"
)

// TableI returns the V/F level table of the paper (Table I) formatted
// for terminal output. It is a direct echo of dvfs.OdroidXU3Levels.
func TableI() string {
	var b strings.Builder
	b.WriteString("Table I: Voltage/Frequency levels of the ARM Cortex-A7 (Odroid-XU3)\n")
	b.WriteString("Notation   ")
	for _, l := range dvfs.OdroidXU3Levels {
		fmt.Fprintf(&b, "%10s", l.Name)
	}
	b.WriteString("\nfreq (MHz) ")
	for _, l := range dvfs.OdroidXU3Levels {
		fmt.Fprintf(&b, "%10.0f", l.FreqMHz)
	}
	b.WriteString("\nvol (mV)   ")
	for _, l := range dvfs.OdroidXU3Levels {
		fmt.Fprintf(&b, "%10.2f", l.VoltMV)
	}
	b.WriteString("\n")
	return b.String()
}

// TableIIRow is one approach (E1/E2/E3) of Table II.
type TableIIRow struct {
	Approach    string
	Models      []string
	Runs        int
	Improvement float64 // vs E1
	Satisfied   bool
	Violations  int
}

// TableIIResult compares E1 (no reconfiguration), E2 (hardware-only
// DVFS) and E3 (hardware + software reconfiguration) under a shared
// energy budget and the paper's 115 ms timing constraint.
type TableIIResult struct {
	TimingMS float64
	Rows     []TableIIRow
}

// TableII reproduces the motivating experiment: the same energy budget
// executed (E1) at the fastest level with one model, (E2) with DVFS but
// a single model, (E3) with DVFS plus per-level pattern-pruned
// sub-models sized to always meet the constraint.
func TableII(s Scale) (*TableIIResult, error) {
	task := NewLMTask(s, 21)
	pr := CalibratedPredictor(task, 160) // dense ≈160 ms at l6
	levels := rt3.EvalLevels()
	prunable := task.PrunableParams()

	// M1: light pruning so l6 meets 115 ms; M2/M3 sparser for l4/l3.
	rng := rand.New(rand.NewSource(22))
	timing := 115.0
	var subs []rtswitch.SubModel
	for i, lvl := range levels {
		sp := 0.0
		var cy float64
		for ; sp <= 0.95; sp += 0.05 {
			set := newSetForSparsity(task, sp, rng)
			masks := rt3.BuildMasks(prunable, nil, set)
			lat, _ := pr.Measure(masks, lvl)
			if lat <= timing {
				cy = pr.Cycles(masks)
				break
			}
		}
		if cy == 0 {
			return nil, fmt.Errorf("experiments: no sparsity meets %v ms at %s", timing, lvl.Name)
		}
		subs = append(subs, rtswitch.SubModel{
			Name:      fmt.Sprintf("M%d", i+1),
			Cycles:    cy,
			MaskBytes: 4096,
		})
	}

	power := dvfs.DefaultPowerModel()
	costs := rtswitch.DefaultSwitchCostModel()
	res := &TableIIResult{TimingMS: timing}

	e1, err := rtswitch.Simulate(rtswitch.Config{
		Levels: levels, SubModels: subs[:1], Power: power, Switch: costs,
		TimingMS: timing, BudgetJ: rt3.BatteryBudgetJ,
	})
	if err != nil {
		return nil, err
	}
	e2, err := rtswitch.Simulate(rtswitch.Config{
		Levels: levels, SubModels: subs[:1], Power: power, Switch: costs,
		TimingMS: timing, BudgetJ: rt3.BatteryBudgetJ, HardwareReconfig: true,
	})
	if err != nil {
		return nil, err
	}
	e3, err := rtswitch.Simulate(rtswitch.Config{
		Levels: levels, SubModels: subs, Power: power, Switch: costs,
		TimingMS: timing, BudgetJ: rt3.BatteryBudgetJ,
		HardwareReconfig: true, SoftwareReconfig: true,
	})
	if err != nil {
		return nil, err
	}
	base := float64(e1.Runs)
	res.Rows = []TableIIRow{
		{Approach: "E1", Models: []string{"M1"}, Runs: e1.Runs, Improvement: 1, Satisfied: e1.SatisfiedAll, Violations: e1.Violations},
		{Approach: "E2", Models: []string{"M1"}, Runs: e2.Runs, Improvement: float64(e2.Runs) / base, Satisfied: e2.SatisfiedAll, Violations: e2.Violations},
		{Approach: "E3", Models: []string{"M1", "M2", "M3"}, Runs: e3.Runs, Improvement: float64(e3.Runs) / base, Satisfied: e3.SatisfiedAll, Violations: e3.Violations},
	}
	return res, nil
}

// String formats the result in the paper's Table II layout.
func (r *TableIIResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: run-time reconfiguration, T = %.0f ms\n", r.TimingMS)
	fmt.Fprintf(&b, "%-4s %-12s %12s %8s %10s %10s\n", "App.", "Models", "# runs", "Imp", "Sat.", "Violations")
	b.WriteString(ReportSeparator + "\n")
	for _, row := range r.Rows {
		sat := "yes"
		if !row.Satisfied {
			sat = "NO"
		}
		fmt.Fprintf(&b, "%-4s %-12s %12d %7.2fx %10s %10d\n",
			row.Approach, strings.Join(row.Models, "+"), row.Runs, row.Improvement, sat, row.Violations)
	}
	return b.String()
}

// TableIVResult is the ablation of Table IV for one dataset.
type TableIVResult struct {
	Dataset string
	Rows    []rt3.AblationRow
}

// TableIV runs the six-method ablation on one dataset ("WikiText-2",
// "RTE" or "STS-B"), echoing the paper's Table IV.
func TableIV(s Scale, dataset string) (*TableIVResult, error) {
	var factory func() rt3.TaskModel
	switch dataset {
	case "WikiText-2":
		factory = func() rt3.TaskModel { return NewLMTask(s, 31) }
	case "RTE", "STS-B":
		factory = func() rt3.TaskModel { return NewGLUETaskModel(s, dataset, 32) }
	default:
		return nil, fmt.Errorf("experiments: unknown ablation dataset %q", dataset)
	}
	timing := 115.0
	search := DefaultSearch(s, timing, 33)
	search.CalibrateMS = 160 // dense ≈160 ms at l6; pruning must buy back 115
	cfg := rt3.AblationConfig{
		TaskFactory: factory,
		Percentile:  0.4,
		Search:      search,
	}
	rows, err := rt3.RunAblation(cfg)
	if err != nil {
		return nil, err
	}
	return &TableIVResult{Dataset: dataset, Rows: rows}, nil
}

// String formats the ablation in the paper's Table IV layout.
func (r *TableIVResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV (%s): BP and AutoML pattern-pruning ablation\n", r.Dataset)
	fmt.Fprintf(&b, "%-10s %10s %12s %8s %10s %10s\n", "Method", "Avg.Spar.", "# runs", "Impr.", "Avg.Metric", "Loss")
	b.WriteString(ReportSeparator + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %9.2f%% %12.0f %7.2fx %10.4f %10.4f\n",
			row.Method, row.AvgSparsity*100, row.Runs, row.Improvement, row.AvgMetric, row.MetricLoss)
	}
	return b.String()
}
