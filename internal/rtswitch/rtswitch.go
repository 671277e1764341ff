// Package rtswitch is RT3's reconfiguration cost model and Table II/III
// simulator: it prices software reconfiguration (swapping lightweight
// pattern sets versus reloading whole models) and simulates
// battery-driven execution with DVFS, reproducing the paper's Table II
// comparison of E1 (no reconfiguration), E2 (hardware-only) and E3
// (hardware + software reconfiguration). Table II models no switch
// time: Simulate counts runs, energy and timing violations only. The
// serving engine (internal/serve) is the run-time system, and a switch's
// measured cost belongs to it; it prices its switches with this cost
// model.
package rtswitch

import (
	"fmt"

	"rt3/internal/dvfs"
)

// SwitchCostModel converts bytes moved into reconfiguration time.
type SwitchCostModel struct {
	// RAMBandwidthMBs is off-chip memory bandwidth for mask swaps
	// ("one pattern set is swapped out to off-chip memory and another is
	// swapped in").
	RAMBandwidthMBs float64
	// StorageBandwidthMBs is flash bandwidth for full model reloads
	// (the UB switching path).
	StorageBandwidthMBs float64
	// ModelRebuildMS is fixed software overhead of re-instantiating a
	// model (allocator, format packing) on a full reload.
	ModelRebuildMS float64
	// MaskOverheadMS is fixed overhead of re-pointing the executor at a
	// different pattern set.
	MaskOverheadMS float64
}

// DefaultSwitchCostModel reflects a mobile platform: fast LPDDR for
// masks, slow eMMC plus rebuild time for whole models.
func DefaultSwitchCostModel() SwitchCostModel {
	return SwitchCostModel{
		RAMBandwidthMBs:     800,
		StorageBandwidthMBs: 40,
		ModelRebuildMS:      1500,
		MaskOverheadMS:      0.5,
	}
}

// PatternSwitchMS returns the time to swap a pattern set of the given
// byte size.
func (m SwitchCostModel) PatternSwitchMS(maskBytes int) float64 {
	return float64(maskBytes)/(m.RAMBandwidthMBs*1e6)*1000 + m.MaskOverheadMS
}

// ModelSwitchMS returns the time to reload a full model of the given
// byte size from storage (the UB path of Table III).
func (m SwitchCostModel) ModelSwitchMS(modelBytes int) float64 {
	return float64(modelBytes)/(m.StorageBandwidthMBs*1e6)*1000 + m.ModelRebuildMS
}

// SubModel describes one deployable configuration at a V/F level.
type SubModel struct {
	Name   string
	Cycles float64 // per-inference execution cycles
}

// Config assembles a run-time simulation.
type Config struct {
	Levels    []dvfs.Level // fastest first; Governor thresholds derive from order
	SubModels []SubModel   // aligned with Levels; len 1 replicates one model
	Power     dvfs.PowerModel
	TimingMS  float64
	BudgetJ   float64
	// HardwareReconfig enables DVFS (level follows the governor);
	// otherwise the first level is used throughout.
	HardwareReconfig bool
	// SoftwareReconfig enables pattern-set switching alongside DVFS.
	SoftwareReconfig bool
}

// Result summarizes a battery-lifetime simulation.
type Result struct {
	Runs         int // completed inferences within the budget
	Violations   int // inferences exceeding the timing constraint
	EnergyUsedJ  float64
	SatisfiedAll bool
	PerLevelRuns []int
}

// Simulate drains the battery budget with repeated inferences, letting
// the governor scale the V/F level as charge falls, and (optionally)
// switching sub-models along with it. A switch costs no time and no
// energy here (mask swaps are DMA transfers whose energy is negligible
// next to an inference).
func Simulate(cfg Config) (*Result, error) {
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("rtswitch: no levels")
	}
	if len(cfg.SubModels) != 1 && len(cfg.SubModels) != len(cfg.Levels) {
		return nil, fmt.Errorf("rtswitch: need 1 or %d sub-models, got %d", len(cfg.Levels), len(cfg.SubModels))
	}
	bat := dvfs.NewBattery(cfg.BudgetJ)
	gov := dvfs.NewGovernor(cfg.Levels)
	res := &Result{SatisfiedAll: true, PerLevelRuns: make([]int, len(cfg.Levels))}
	for {
		idx := 0
		if cfg.HardwareReconfig {
			idx = gov.PickIndex(bat.Fraction())
		}
		sub := cfg.SubModels[0]
		if cfg.SoftwareReconfig && len(cfg.SubModels) > 1 {
			sub = cfg.SubModels[idx]
		}
		level := cfg.Levels[idx]
		energy := cfg.Power.InferenceEnergy(level, sub.Cycles)
		if !bat.Drain(energy) {
			break
		}
		lat := sub.Cycles / level.FreqHz() * 1000
		res.Runs++
		res.PerLevelRuns[idx]++
		if lat > cfg.TimingMS {
			res.Violations++
			res.SatisfiedAll = false
		}
		res.EnergyUsedJ += energy
	}
	return res, nil
}
