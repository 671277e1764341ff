package dvfs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTableIValues(t *testing.T) {
	// Table I of the paper, verbatim.
	want := []struct {
		name string
		freq float64
		volt float64
	}{
		{"l1", 400, 916.25}, {"l2", 600, 917.5}, {"l3", 800, 992.5},
		{"l4", 1000, 1066.25}, {"l5", 1200, 1141.25}, {"l6", 1400, 1240},
	}
	if len(OdroidXU3Levels) != 6 {
		t.Fatalf("expected 6 levels, got %d", len(OdroidXU3Levels))
	}
	for i, w := range want {
		l := OdroidXU3Levels[i]
		if l.Name != w.name || l.FreqMHz != w.freq || l.VoltMV != w.volt {
			t.Errorf("level %d = %+v, want %+v", i, l, w)
		}
	}
}

func TestLevelByName(t *testing.T) {
	l, err := LevelByName("l3")
	if err != nil || l.FreqMHz != 800 {
		t.Fatalf("LevelByName(l3) = %+v, %v", l, err)
	}
	if _, err := LevelByName("l9"); err == nil {
		t.Fatal("expected error for unknown level")
	}
}

func TestPowerIncreasesWithLevel(t *testing.T) {
	pm := DefaultPowerModel()
	prev := 0.0
	for _, l := range OdroidXU3Levels {
		p := pm.Power(l)
		if p <= prev {
			t.Fatalf("power not monotone at %s: %g <= %g", l.Name, p, prev)
		}
		prev = p
	}
}

func TestEnergyPerCycleFavorsLowLevels(t *testing.T) {
	// The core DVFS fact: lower V/F costs less energy per cycle, so a
	// fixed workload uses less energy when run slower.
	pm := DefaultPowerModel()
	low := pm.EnergyPerCycle(OdroidXU3Levels[0])
	high := pm.EnergyPerCycle(OdroidXU3Levels[5])
	if low >= high {
		t.Fatalf("energy/cycle at l1 (%g) >= l6 (%g)", low, high)
	}
}

func TestPowerPlausibleRange(t *testing.T) {
	pm := DefaultPowerModel()
	p6 := pm.Power(OdroidXU3Levels[5])
	if p6 < 0.2 || p6 > 2.0 {
		t.Fatalf("l6 power %g W not plausible for a Cortex-A7 cluster", p6)
	}
}

func TestInferenceEnergyLinearInCycles(t *testing.T) {
	pm := DefaultPowerModel()
	l := OdroidXU3Levels[3]
	e1 := pm.InferenceEnergy(l, 1e6)
	e2 := pm.InferenceEnergy(l, 2e6)
	if math.Abs(e2-2*e1) > 1e-15 {
		t.Fatalf("energy not linear: %g vs %g", e2, 2*e1)
	}
}

func TestBatteryDrain(t *testing.T) {
	b := NewBattery(10)
	if !b.Drain(4) || b.Remaining != 6 {
		t.Fatalf("drain failed: %+v", b)
	}
	if b.Drain(7) {
		t.Fatal("over-drain succeeded")
	}
	if b.Remaining != 6 {
		t.Fatal("failed drain changed charge")
	}
	if math.Abs(b.Fraction()-0.6) > 1e-12 {
		t.Fatalf("fraction %g", b.Fraction())
	}
}

func TestBatteryNeverNegative(t *testing.T) {
	f := func(drains []float64) bool {
		b := NewBattery(100)
		for _, d := range drains {
			if d < 0 {
				d = -d
			}
			b.Drain(math.Mod(d, 50))
			if b.Remaining < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGovernorMonotone(t *testing.T) {
	g := NewGovernor(OdroidXU3Levels[:3])
	// full battery -> fastest; empty -> slowest
	if name := g.Levels[g.PickIndex(1.0)].Name; name != "l1" {
		t.Fatalf("full battery picked %s", name)
	}
	if name := g.Levels[g.PickIndex(0.0)].Name; name != "l3" {
		t.Fatalf("empty battery picked %s", name)
	}
	// index never decreases as fraction drops
	prev := -1
	for f := 1.0; f >= 0; f -= 0.01 {
		idx := g.PickIndex(f)
		if idx < prev {
			t.Fatalf("governor went faster as battery dropped at %g", f)
		}
		prev = idx
	}
}

func TestGovernorSingleLevel(t *testing.T) {
	g := NewGovernor(OdroidXU3Levels[5:6])
	if g.Levels[g.PickIndex(0.5)].Name != "l6" {
		t.Fatal("single-level governor wrong")
	}
}

func TestNumRunsGainFromDVFS(t *testing.T) {
	// Running the same cycles at l1 must allow more runs than at l6.
	pm := DefaultPowerModel()
	budget := 1000.0
	cycles := 1e8
	runsLow := budget / pm.InferenceEnergy(OdroidXU3Levels[0], cycles)
	runsHigh := budget / pm.InferenceEnergy(OdroidXU3Levels[5], cycles)
	if runsLow <= runsHigh {
		t.Fatalf("DVFS gave no gain: %g <= %g", runsLow, runsHigh)
	}
	gain := runsLow / runsHigh
	if gain < 1.1 || gain > 10 {
		t.Fatalf("DVFS gain %gx implausible", gain)
	}
}
