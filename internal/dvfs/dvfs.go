// Package dvfs models the hardware-reconfiguration side of RT3: the
// voltage/frequency levels of the Odroid-XU3's Cortex-A7 cluster
// (Table I of the paper), the dynamic power model P = C_eff * V^2 * f,
// battery energy accounting, and the energy-threshold governor that
// scales the level down as the battery drains (the "dancing along
// battery" behaviour).
package dvfs

import "fmt"

// Level is one voltage/frequency operating point.
type Level struct {
	Name    string
	FreqMHz float64 // core frequency in MHz
	VoltMV  float64 // supply voltage in millivolts
}

// FreqHz returns the frequency in Hz.
func (l Level) FreqHz() float64 { return l.FreqMHz * 1e6 }

// Volt returns the supply voltage in volts.
func (l Level) Volt() float64 { return l.VoltMV / 1000 }

// OdroidXU3Levels is Table I of the paper: the six V/F levels supported
// by the ARM Cortex-A7 core in the Odroid-XU3 mobile platform.
var OdroidXU3Levels = []Level{
	{Name: "l1", FreqMHz: 400, VoltMV: 916.25},
	{Name: "l2", FreqMHz: 600, VoltMV: 917.5},
	{Name: "l3", FreqMHz: 800, VoltMV: 992.5},
	{Name: "l4", FreqMHz: 1000, VoltMV: 1066.25},
	{Name: "l5", FreqMHz: 1200, VoltMV: 1141.25},
	{Name: "l6", FreqMHz: 1400, VoltMV: 1240},
}

// LevelByName looks up an Odroid-XU3 level ("l1".."l6").
func LevelByName(name string) (Level, error) {
	for _, l := range OdroidXU3Levels {
		if l.Name == name {
			return l, nil
		}
	}
	return Level{}, fmt.Errorf("dvfs: unknown level %q", name)
}

// PowerModel converts an operating point into dynamic power.
type PowerModel struct {
	// CEff is the effective switched capacitance in farads. The default
	// is calibrated so the Cortex-A7 cluster draws ~0.6 W at l6
	// (1.4 GHz, 1.24 V), in line with published Odroid-XU3 measurements.
	CEff float64
	// Static is leakage power in watts, added at every level.
	Static float64
}

// DefaultPowerModel returns the calibrated Odroid-XU3 A7 model.
func DefaultPowerModel() PowerModel {
	return PowerModel{CEff: 2.8e-10, Static: 0.05}
}

// Power returns the total power in watts at level l.
func (p PowerModel) Power(l Level) float64 {
	v := l.Volt()
	return p.CEff*v*v*l.FreqHz() + p.Static
}

// EnergyPerCycle returns joules consumed per clock cycle at level l.
// Because dynamic energy per cycle is C*V^2, running slower at a lower
// voltage costs less energy per unit of work — the reason DVFS prolongs
// battery life.
func (p PowerModel) EnergyPerCycle(l Level) float64 {
	return p.Power(l) / l.FreqHz()
}

// InferenceEnergy returns the energy in joules of executing the given
// number of cycles at level l.
func (p PowerModel) InferenceEnergy(l Level, cycles float64) float64 {
	return p.EnergyPerCycle(l) * cycles
}

// Battery tracks a fixed energy budget in joules.
type Battery struct {
	Capacity  float64
	Remaining float64
}

// NewBattery returns a full battery with the given capacity in joules.
func NewBattery(capacityJ float64) *Battery {
	return &Battery{Capacity: capacityJ, Remaining: capacityJ}
}

// Drain removes energy (joules); it reports false when the battery
// cannot supply the request (and leaves the charge unchanged).
func (b *Battery) Drain(j float64) bool {
	if j > b.Remaining {
		return false
	}
	b.Remaining -= j
	return true
}

// Fraction returns the remaining state of charge in [0, 1].
func (b *Battery) Fraction() float64 {
	if b.Capacity == 0 {
		return 0
	}
	return b.Remaining / b.Capacity
}

// Governor selects a V/F level from the battery's state of charge: the
// i-th level of Levels is used while Fraction > Thresholds[i]; the last
// level is the deep energy-saving mode.
type Governor struct {
	Levels     []Level
	Thresholds []float64 // descending, len == len(Levels)-1
}

// NewGovernor builds a governor over the given levels (ordered fastest
// first) with evenly spaced state-of-charge thresholds, mimicking the
// phone behaviour the paper cites (energy-saving mode under 20%).
func NewGovernor(levels []Level) *Governor {
	n := len(levels)
	if n == 0 {
		panic("dvfs: governor needs at least one level")
	}
	th := make([]float64, n-1)
	for i := range th {
		th[i] = float64(n-1-i) / float64(n)
	}
	return &Governor{Levels: levels, Thresholds: th}
}

// PickIndex returns the index in Levels of the level for the given
// state of charge.
func (g *Governor) PickIndex(fraction float64) int {
	for i, th := range g.Thresholds {
		if fraction > th {
			return i
		}
	}
	return len(g.Levels) - 1
}
