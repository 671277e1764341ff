// Command rt3search runs the complete two-level RT3 AutoML pipeline on
// one workload and prints the discovered multi-level deployment plan:
// the Level-1 backbone, the Level-2 pattern sets per V/F level, their
// predicted latency/number-of-runs, and the fine-tuned metrics.
//
// The timing constraint T and the dense model's calibrated latency
// default to the task's Table III column (WikiText-2 at its looser
// T, 104 ms).
//
// Usage:
//
//	rt3search -task wikitext
//	rt3search -task rte -timing 200 -episodes 12
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"rt3/internal/experiments"
	"rt3/internal/rt3"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rt3search: ")
	taskName := flag.String("task", "wikitext", "workload: wikitext, rte, sts-b")
	timing := flag.Float64("timing", 0, "real-time constraint T in ms (0 = the task's T in Table III)")
	episodes := flag.Int("episodes", 0, "RL episodes (0 = scale default)")
	scaleFlag := flag.String("scale", "tiny", "model scale: tiny or small")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	dataset, ok := map[string]string{"wikitext": "WikiText-2", "rte": "RTE", "sts-b": "STS-B"}[*taskName]
	if !ok {
		log.Fatalf("unknown task %q", *taskName)
	}
	var spec experiments.Table3Spec
	for _, s := range experiments.DefaultTable3Specs() {
		if s.Dataset == dataset {
			spec = s // the last match: WikiText-2's looser T
		}
	}
	if *timing > 0 {
		spec.TimingMS = *timing
	}

	var task rt3.TaskModel
	if dataset == "WikiText-2" {
		task = experiments.NewLMTask(scale, *seed)
	} else {
		task = experiments.NewGLUETaskModel(scale, dataset, *seed)
	}
	fmt.Printf("pre-trained %s: %s = %.4f\n", *taskName, task.MetricName(), task.Evaluate())

	rng := rand.New(rand.NewSource(*seed + 7))
	l1, err := rt3.RunLevel1(task, 0.3, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Level 1 (BP): sparsity %.2f%%, %s = %.4f\n", l1.Sparsity*100, task.MetricName(), l1.Metric)

	cfg := experiments.DefaultSearch(scale, spec.TimingMS, spec.DenseMS, *seed+13)
	if *episodes > 0 {
		cfg.Episodes = *episodes
	}
	res, err := rt3.Search(task, l1, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Level 2 (RL search): %d episodes explored, %d on Pareto front\n",
		len(res.Explored), len(res.ParetoFront()))

	rt3.FinalizeSolution(task, res.Best, rng)
	fmt.Printf("\nDeployment plan (T = %.0f ms):\n", spec.TimingMS)
	fmt.Printf("%-6s %10s %12s %14s %10s\n", "level", "sparsity", "latency(ms)", "runs/budget", task.MetricName())
	for _, ls := range res.Best.Levels {
		fmt.Printf("%-6s %9.2f%% %12.2f %14.0f %10.4f\n",
			ls.Level.Name, ls.Sparsity*100, ls.LatencyMS, ls.Runs, ls.Metric)
	}
	fmt.Printf("\nweighted metric: %.4f  total runs: %.0f\n", res.Best.WeightedAcc, res.Best.TotalRuns)
}
