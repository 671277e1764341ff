package rtswitch

import (
	"testing"

	"rt3/internal/dvfs"
)

func threeLevels() []dvfs.Level {
	return []dvfs.Level{dvfs.OdroidXU3Levels[5], dvfs.OdroidXU3Levels[3], dvfs.OdroidXU3Levels[2]}
}

func TestPatternSwitchIsMilliseconds(t *testing.T) {
	m := DefaultSwitchCostModel()
	// a realistic pattern set: a few KB of masks
	ms := m.PatternSwitchMS(4096)
	if ms < 0.1 || ms > 100 {
		t.Fatalf("pattern switch %g ms outside the paper's regime", ms)
	}
}

func TestModelSwitchIsSeconds(t *testing.T) {
	m := DefaultSwitchCostModel()
	// a mobile transformer: ~100 MB of weights
	ms := m.ModelSwitchMS(100 << 20)
	if ms < 1000 {
		t.Fatalf("model switch %g ms should be seconds", ms)
	}
}

func TestSwitchSpeedupOver1000x(t *testing.T) {
	// The paper: "RT3 achieves over 1000x speedup at switch" for
	// DistilBERT (45ms vs 66.93s).
	m := DefaultSwitchCostModel()
	patMS := m.PatternSwitchMS(8192)
	modelMS := m.ModelSwitchMS(250 << 20)
	if modelMS/patMS < 1000 {
		t.Fatalf("switch speedup %gx, want > 1000x", modelMS/patMS)
	}
}

func TestSimulateE1FixedLevel(t *testing.T) {
	cfg := Config{
		Levels:    threeLevels(),
		SubModels: []SubModel{{Name: "M1", Cycles: 1e8}},
		Power:     dvfs.DefaultPowerModel(),
		TimingMS:  115,
		BudgetJ:   50,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 {
		t.Fatal("no runs completed")
	}
	if res.PerLevelRuns[0] != res.Runs {
		t.Fatalf("E1 must run every inference at the first level: %v of %d runs", res.PerLevelRuns, res.Runs)
	}
}

func TestSimulateE2HardwareOnlyGainsRunsButViolatesTiming(t *testing.T) {
	pm := dvfs.DefaultPowerModel()
	base := Config{
		Levels:    threeLevels(),
		SubModels: []SubModel{{Name: "M1", Cycles: 1.3e8}}, // ~115ms at l6
		Power:     pm,
		TimingMS:  115,
		BudgetJ:   50,
	}
	e1, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	e2cfg := base
	e2cfg.HardwareReconfig = true
	e2, err := Simulate(e2cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Runs <= e1.Runs {
		t.Fatalf("DVFS gave no gain: E2 %d <= E1 %d", e2.Runs, e1.Runs)
	}
	if e2.SatisfiedAll {
		t.Fatal("E2 at low frequency with the dense model should violate timing")
	}
}

func TestSimulateE3BothReconfigWinsAndMeetsTiming(t *testing.T) {
	pm := dvfs.DefaultPowerModel()
	levels := threeLevels()
	// sparser sub-models at slower levels sized to meet 115ms everywhere
	subs := []SubModel{
		{Name: "M1", Cycles: 1.3e8},
		{Name: "M2", Cycles: 0.9e8},
		{Name: "M3", Cycles: 0.7e8},
	}
	e3cfg := Config{
		Levels: levels, SubModels: subs, Power: pm,
		TimingMS: 115, BudgetJ: 50,
		HardwareReconfig: true, SoftwareReconfig: true,
	}
	e3, err := Simulate(e3cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !e3.SatisfiedAll {
		t.Fatalf("E3 violated timing %d times", e3.Violations)
	}
	e1cfg := e3cfg
	e1cfg.HardwareReconfig = false
	e1cfg.SoftwareReconfig = false
	e1cfg.SubModels = subs[:1]
	e1, _ := Simulate(e1cfg)
	if float64(e3.Runs)/float64(e1.Runs) < 1.3 {
		t.Fatalf("E3/E1 improvement only %gx", float64(e3.Runs)/float64(e1.Runs))
	}
	for i, n := range e3.PerLevelRuns {
		if n == 0 {
			t.Fatalf("E3 should have run each level's sub-model: none at level %d (%v)", i, e3.PerLevelRuns)
		}
	}
}

func TestSimulateConfigErrors(t *testing.T) {
	if _, err := Simulate(Config{}); err == nil {
		t.Fatal("empty config should error")
	}
	if _, err := Simulate(Config{
		Levels:    threeLevels(),
		SubModels: []SubModel{{}, {}},
	}); err == nil {
		t.Fatal("mismatched sub-models should error")
	}
}

func TestSimulateEnergyConservation(t *testing.T) {
	cfg := Config{
		Levels:    threeLevels(),
		SubModels: []SubModel{{Name: "M", Cycles: 1e8}},
		Power:     dvfs.DefaultPowerModel(),
		TimingMS:  1000,
		BudgetJ:   10,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyUsedJ > cfg.BudgetJ {
		t.Fatalf("used %g J > budget %g J", res.EnergyUsedJ, cfg.BudgetJ)
	}
	// remaining energy is less than one more inference
	perInf := cfg.Power.InferenceEnergy(cfg.Levels[0], 1e8)
	if cfg.BudgetJ-res.EnergyUsedJ > perInf {
		t.Fatal("simulation stopped early")
	}
}
