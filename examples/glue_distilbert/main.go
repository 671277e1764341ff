// GLUE / DistilBERT scenario: block-structured pruning across the
// GLUE-style understanding tasks with the DistilBERT-like six-encoder
// classifier, echoing the paper's Fig. 5 — every task keeps most of its
// score at roughly 1.3-2x compression.
//
// Run with: go run ./examples/glue_distilbert
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rt3/internal/experiments"
	"rt3/internal/rt3"
)

func main() {
	log.SetFlags(0)

	tasks := []string{"RTE", "SST-2", "MRPC", "STS-B", "CoLA"}
	fmt.Printf("%-8s %-10s %10s %10s %8s\n", "Task", "Metric", "Original", "BP", "Rate")
	for i, name := range tasks {
		task := experiments.NewGLUETaskModel(experiments.ScaleTiny, name, int64(10+i))
		orig := task.Evaluate()
		l1, err := rt3.RunLevel1(task, 0.4, rand.New(rand.NewSource(int64(20+i))))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-10s %10.4f %10.4f %7.1fx\n",
			name, task.MetricName(), orig, l1.Metric, 1/(1-l1.Sparsity))
	}
	fmt.Println("\n(run `go run ./cmd/rt3bench -exp fig5` for all nine tasks + WikiText-2)")
}
