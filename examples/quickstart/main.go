// Quickstart: the minimal end-to-end RT3 flow.
//
// It builds and pre-trains a small Transformer language model, applies
// Level-1 block-structured pruning, runs the Level-2 RL pattern-set
// search for three DVFS levels, and prints the resulting deployment
// plan together with the run-time switch cost.
//
// Run with: go run ./examples/quickstart
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

	// 1. A pre-trained model on the WikiText-2-style synthetic corpus.
	task := experiments.NewLMTask(experiments.ScaleTiny, 1)
	fmt.Printf("dense model accuracy: %.4f\n", task.Evaluate())

	// 2. Level 1: block-structured pruning to a fixed backbone.
	rng := rand.New(rand.NewSource(2))
	l1, err := rt3.RunLevel1(task, experiments.DefaultLevel1(0.3), rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backbone after BP: sparsity %.1f%%, accuracy %.4f\n", l1.Sparsity*100, l1.Metric)

	// 3. Level 2: RL search for one pattern set per V/F level.
	cfg := experiments.DefaultSearch(experiments.ScaleTiny, 104, 3)
	cfg.CalibrateMS = 160 // place the dense model at ~160 ms @ l6 (paper regime)
	res, err := rt3.Search(task, l1, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rt3.FinalizeSolution(task, res.Best, 2, cfg.Batch, cfg.LR, rng)

	fmt.Printf("\ndeployment plan (T = %.0f ms):\n", cfg.TimingMS)
	for _, ls := range res.Best.Levels {
		fmt.Printf("  %-3s sparsity %5.1f%%  latency %6.2f ms  accuracy %.4f\n",
			ls.Level.Name, ls.Sparsity*100, ls.LatencyMS, ls.Metric)
	}

	// 4. Run time: switching between pattern sets costs milliseconds.
	// Battery low: jump to energy-saving mode by swapping l3's set in.
	ms := rtswitch.DefaultSwitchCostModel().PatternSwitchMS(res.Best.Sets[2].MaskBytes())
	fmt.Printf("\nswitch l6 -> l3 took %.2f ms (pattern-set swap only)\n", ms)
	fmt.Println("\n(next: `go run ./cmd/rt3serve -load` serves a deployment like this" +
		" under live traffic; `-gen` for KV-cached generation, `-autotune` for the" +
		" closed-loop RL/DVFS controller)")
}
