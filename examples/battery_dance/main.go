// Battery dance: the paper's headline scenario. A battery drains while
// the device keeps serving Transformer inferences under a 115 ms
// real-time constraint. The DVFS governor steps the V/F level down as
// charge falls and RT3 swaps the matching pattern set in, so the
// constraint keeps holding to the last joule; the run compares this
// against no reconfiguration and hardware-only reconfiguration.
//
// Run with: go run ./examples/battery_dance
package main

import (
	"fmt"
	"log"

	"rt3/internal/dvfs"
	"rt3/internal/experiments"
	"rt3/internal/rt3"
	"rt3/internal/rtswitch"
)

func main() {
	log.SetFlags(0)

	res, err := experiments.TableII(experiments.ScaleTiny)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	// Narrated drain: watch the governor step levels down.
	fmt.Println("\nBattery trace (E3-style run, 1 report per 10% charge):")
	levels := rt3.EvalLevels()
	gov := dvfs.NewGovernor(levels)
	bat := dvfs.NewBattery(100) // a small battery so the trace is short
	power := dvfs.DefaultPowerModel()
	costs := rtswitch.DefaultSwitchCostModel()
	subs := []rtswitch.SubModel{
		{Name: "M1 (47% sparse)", Cycles: 1.1e8, MaskBytes: 4096},
		{Name: "M2 (70% sparse)", Cycles: 0.8e8, MaskBytes: 4096},
		{Name: "M3 (80% sparse)", Cycles: 0.6e8, MaskBytes: 4096},
	}
	current, switches, switchMS := 0, 0, 0.0
	nextReport := 0.9
	runs := 0
	for {
		if idx := gov.PickIndex(bat.Fraction()); idx != current {
			ms := costs.PatternSwitchMS(subs[idx].MaskBytes)
			current, switches, switchMS = idx, switches+1, switchMS+ms
			fmt.Printf("  %5.1f%% charge: switch to %s + %s (%.2f ms)\n",
				bat.Fraction()*100, levels[idx].Name, subs[idx].Name, ms)
		}
		sub := subs[current]
		level := levels[current]
		if !bat.Drain(power.InferenceEnergy(level, sub.Cycles)) {
			break
		}
		runs++
		if bat.Fraction() <= nextReport {
			lat := sub.Cycles / level.FreqHz() * 1000
			fmt.Printf("  %5.1f%% charge: %s at %s, latency %.1f ms, %d runs so far\n",
				bat.Fraction()*100, sub.Name, level.Name, lat, runs)
			nextReport -= 0.1
		}
	}
	fmt.Printf("battery empty after %d inferences, %d switches (%.2f ms total switch time)\n",
		runs, switches, switchMS)
	fmt.Println("\n(live version under real traffic: `go run ./cmd/rt3serve -load`;" +
		" closed-loop RL instead of the scripted governor: `go run ./cmd/rt3serve -load -autotune`)")
}
