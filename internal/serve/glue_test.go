package serve_test

import (
	"math/rand"
	"testing"

	"rt3/internal/data"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// newGLUEDeployment deploys a classifier sized for the synthetic GLUE
// vocabulary (48 tokens, seq len 16) with the given output head width.
func newGLUEDeployment(t testing.TB, classes int) *serve.Engine {
	t.Helper()
	d, err := serve.Deploy(testSpec(11, 4), func(rng *rand.Rand) *transformer.Classifier {
		return transformer.NewClassifier(transformer.Config{
			Vocab: 48, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 2, SeqLen: 16, Classes: classes,
		}, rng)
	}, 1, serve.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d.Engine
}

// TestRunTaskClassification serves an SST-2 eval split end-to-end
// through the batching stack, checks the scored report is coherent, and
// dense-verifies every served output.
func TestRunTaskClassification(t *testing.T) {
	eng := newGLUEDeployment(t, 2)
	srv := serve.New(eng, serve.Config{MaxBatch: 4, QueueCap: 64})
	srv.Start()
	defer srv.Stop()

	task := data.GenerateTask("SST-2", 0, 24, 71)
	rep, err := serve.RunTask(srv, task, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "SST-2" || rep.Metric != "accuracy" {
		t.Fatalf("report identity: %q %q", rep.Name, rep.Metric)
	}
	if rep.Examples != 24 || rep.Verified != 24 {
		t.Fatalf("examples %d verified %d, want 24/24", rep.Examples, rep.Verified)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d dense mismatches", rep.Mismatches)
	}
	if rep.Score < 0 || rep.Score > 1 {
		t.Fatalf("accuracy out of range: %g", rep.Score)
	}
	total := 0
	for _, n := range rep.Levels {
		total += n
	}
	if total != rep.Examples {
		t.Fatalf("level counts sum %d, want %d", total, rep.Examples)
	}
}

// TestRunTaskRegression covers the STS-B head: scores come from the raw
// regression output and Spearman rho is finite and bounded.
func TestRunTaskRegression(t *testing.T) {
	eng := newGLUEDeployment(t, 1)
	srv := serve.New(eng, serve.Config{MaxBatch: 4, QueueCap: 64})
	srv.Start()
	defer srv.Stop()

	task := data.GenerateTask("STS-B", 0, 16, 72)
	rep, err := serve.RunTask(srv, task, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metric != "Spearman" {
		t.Fatalf("metric %q, want Spearman", rep.Metric)
	}
	if rep.Score < -1 || rep.Score > 1 {
		t.Fatalf("Spearman rho out of range: %g", rep.Score)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d dense mismatches", rep.Mismatches)
	}
}

// TestRunTaskErrors pins the argument surface.
func TestRunTaskErrors(t *testing.T) {
	eng := newGLUEDeployment(t, 2)
	srv := serve.New(eng, serve.Config{MaxBatch: 2, QueueCap: 8})
	srv.Start()
	if _, err := serve.RunTask(srv, nil, false); err == nil {
		t.Fatal("nil task should error")
	}
	if _, err := serve.RunTask(srv, &data.Task{}, false); err == nil {
		t.Fatal("empty eval split should error")
	}
	srv.Stop()
	task := data.GenerateTask("RTE", 0, 4, 73)
	if _, err := serve.RunTask(srv, task, false); err == nil {
		t.Fatal("stopped server should error")
	}
}
