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

	// M1..M3: each level's just-feasible sub-model, the anchor the
	// search's space is built from (no BP masks here)
	rng := rand.New(rand.NewSource(22))
	timing := 115.0
	var subs []rtswitch.SubModel
	for i, lvl := range levels {
		_, masks, err := rt3.MinFeasibleSparsity(prunable, nil, pr, lvl, timing, rng)
		if err != nil {
			return nil, err
		}
		subs = append(subs, rtswitch.SubModel{
			Name:      fmt.Sprintf("M%d", i+1),
			Cycles:    pr.Cycles(masks),
			MaskBytes: 4096,
		})
	}

	// E1 runs M1 at l6 throughout, E2 lets DVFS scale M1 with the
	// battery, E3 switches to each level's sub-model as well
	res := &TableIIResult{TimingMS: timing}
	for i, e := range []struct {
		models int
		hw, sw bool
	}{{1, false, false}, {1, true, false}, {3, true, true}} {
		sim, err := rtswitch.Simulate(rtswitch.Config{
			Levels: levels, SubModels: subs[:e.models],
			Power: dvfs.DefaultPowerModel(), Switch: rtswitch.DefaultSwitchCostModel(),
			TimingMS: timing, BudgetJ: rt3.BatteryBudgetJ,
			HardwareReconfig: e.hw, SoftwareReconfig: e.sw,
		})
		if err != nil {
			return nil, err
		}
		row := TableIIRow{Approach: fmt.Sprintf("E%d", i+1), Runs: sim.Runs, Satisfied: sim.SatisfiedAll, Violations: sim.Violations}
		for _, m := range subs[:e.models] {
			row.Models = append(row.Models, m.Name)
		}
		res.Rows = append(res.Rows, row)
	}
	for i := range res.Rows {
		res.Rows[i].Improvement = float64(res.Rows[i].Runs) / float64(res.Rows[0].Runs)
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
	cfg := rt3.AblationConfig{
		TaskFactory: factory,
		Percentile:  0.4,
		// dense ≈160 ms at l6; pruning must buy back 115
		Search: DefaultSearch(s, timing, 160, 33),
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
