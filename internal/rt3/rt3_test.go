package rt3_test

import (
	"math"
	"math/rand"
	"testing"

	"rt3/internal/data"
	"rt3/internal/dvfs"
	"rt3/internal/nn"
	"rt3/internal/rt3"
	"rt3/internal/transformer"
)

// tinyLMTask builds a small pre-trained LM task for pipeline tests.
func tinyLMTask(t testing.TB, pretrainEpochs int) *rt3.LMTask {
	t.Helper()
	cfg := transformer.Config{Vocab: 32, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, DecLayers: 1, SeqLen: 12}
	rng := rand.New(rand.NewSource(42))
	model := transformer.NewLMModel(cfg, rng)
	corpus := data.GenerateMarkovCorpus(data.MarkovConfig{
		Vocab: 32, Length: 1600, Branch: 2, ZipfS: 1.5, NoiseProb: 0.05, Seed: 7,
	})
	train, eval := data.Split(corpus.Sequences(12), 0.8)
	task := rt3.NewLMTask(model, train, eval)
	if pretrainEpochs > 0 {
		tr := rt3.NewTrainer(task, 3e-3)
		tr.Fit(pretrainEpochs, 8, rng)
	}
	return task
}

func tinyGLUETask(t testing.TB, name string, pretrainEpochs int) *rt3.GLUETask {
	t.Helper()
	spec := data.GenerateTask(name, 80, 40, 11)
	cfg := transformer.Config{
		Vocab: spec.Spec.Vocab, Dim: 16, Heads: 2, FFHidden: 32,
		EncLayers: 2, SeqLen: spec.Spec.SeqLen, Classes: spec.Spec.Classes,
	}
	if spec.Spec.Classes == 1 {
		cfg.Classes = 1
	}
	rng := rand.New(rand.NewSource(43))
	model := transformer.NewClassifier(cfg, rng)
	task := rt3.NewGLUETask(model, spec)
	if pretrainEpochs > 0 {
		tr := rt3.NewTrainer(task, 3e-3)
		tr.Fit(pretrainEpochs, 8, rng)
	}
	return task
}

func TestPrunableParamsSelection(t *testing.T) {
	task := tinyLMTask(t, 0)
	prunable := task.PrunableParams()
	// 2 encoders (6 each: wq wk wv wo ff1 ff2) + 1 decoder (2 attns + ff = 10)
	want := 2*6 + 10
	if len(prunable) != want {
		t.Fatalf("prunable params %d, want %d", len(prunable), want)
	}
	for _, p := range prunable {
		if p.Value.Rows < 2 || p.Value.Cols < 2 {
			t.Fatalf("non-matrix parameter %s selected", p.Name)
		}
	}
}

func TestTrainerImprovesLM(t *testing.T) {
	task := tinyLMTask(t, 0)
	before := task.Evaluate()
	tr := rt3.NewTrainer(task, 3e-3)
	after := tr.Fit(8, 8, rand.New(rand.NewSource(1)))
	if after <= before {
		t.Fatalf("training did not improve accuracy: %g -> %g", before, after)
	}
	if after < 0.3 {
		t.Fatalf("LM accuracy %g too low after training", after)
	}
}

func TestRunLevel1ProducesSparseBackbone(t *testing.T) {
	task := tinyLMTask(t, 2)
	dense := task.Evaluate()
	l1, err := rt3.RunLevel1(task, 0.4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if l1.Sparsity < 0.3 || l1.Sparsity > 0.5 {
		t.Fatalf("backbone sparsity %g, want ~0.4", l1.Sparsity)
	}
	if len(l1.Masks) != len(task.PrunableParams()) {
		t.Fatal("mask count mismatch")
	}
	// fine-tuned pruned model should stay within a sane band of dense
	if l1.Metric < dense-0.35 {
		t.Fatalf("BP destroyed the model: %g -> %g", dense, l1.Metric)
	}
	// weights actually zeroed
	if got := nn.GlobalSparsity(task.PrunableParams()); math.Abs(got-l1.Sparsity) > 0.05 {
		t.Fatalf("weights sparsity %g != reported %g", got, l1.Sparsity)
	}
}

func TestBPBeatsRandomBP(t *testing.T) {
	bpTask := tinyLMTask(t, 2)
	bp, err := rt3.RunLevel1(bpTask, 0.5, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	rbpTask := tinyLMTask(t, 2)
	rbp, err := rt3.RunRandomLevel1(rbpTask, 0.5, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bp.Sparsity-rbp.Sparsity) > 0.02 {
		t.Fatalf("unequal sparsity %g vs %g", bp.Sparsity, rbp.Sparsity)
	}
	// l2-informed pruning should not lose to random (allow small noise)
	if bp.Metric < rbp.Metric-0.05 {
		t.Fatalf("BP (%g) much worse than rBP (%g)", bp.Metric, rbp.Metric)
	}
}

func TestPredictorLatencyMonotoneInSparsity(t *testing.T) {
	task := tinyLMTask(t, 0)
	pr := rt3.NewPredictor(task)
	level := dvfs.OdroidXU3Levels[2]
	prunable := task.PrunableParams()
	var prev float64 = math.Inf(1)
	for _, sp := range []float64{0.2, 0.5, 0.8} {
		rng := rand.New(rand.NewSource(4))
		set := dummySet(t, task, sp, rng)
		masks := rt3.BuildMasks(prunable, nil, set)
		lat, runs := pr.Measure(masks, level)
		if lat >= prev {
			t.Fatalf("latency not decreasing with sparsity: %g >= %g", lat, prev)
		}
		if runs <= 0 {
			t.Fatal("runs must be positive")
		}
		prev = lat
	}
}

func dummySet(t testing.TB, task rt3.TaskModel, sparsity float64, rng *rand.Rand) *patternSet {
	t.Helper()
	return newPatternSet(sparsity, rng)
}

func TestJointTrainSharedBackbone(t *testing.T) {
	task := tinyLMTask(t, 2)
	prunable := task.PrunableParams()
	rng := rand.New(rand.NewSource(5))
	masksA := rt3.BuildMasks(prunable, nil, newPatternSet(0.3, rng))
	masksB := rt3.BuildMasks(prunable, nil, newPatternSet(0.7, rng))
	accs := rt3.JointTrain(task, [][]*matMatrix{masksA, masksB}, 1, rng)
	if len(accs) != 2 {
		t.Fatalf("got %d accs", len(accs))
	}
	// the denser sub-model should be at least as good (within noise)
	if accs[0] < accs[1]-0.1 {
		t.Fatalf("sparser sub-model much better: %v", accs)
	}
	// shared weights restored dense: sparsity should be the union effect,
	// not equal to either mask's sparsity alone (weights not masked)
	for _, p := range prunable {
		if p.Mask != nil {
			t.Fatal("JointTrain must not leave level masks attached")
		}
	}
}

func TestEvaluateUnderMasksRestoresWeights(t *testing.T) {
	task := tinyLMTask(t, 1)
	prunable := task.PrunableParams()
	before := rt3.SnapshotWeights(prunable)
	rng := rand.New(rand.NewSource(6))
	masks := rt3.BuildMasks(prunable, nil, newPatternSet(0.5, rng))
	rt3.EvaluateUnderMasks(task, [][]*matMatrix{masks})
	after := rt3.SnapshotWeights(prunable)
	for i := range before {
		for j := range before[i].Data {
			if before[i].Data[j] != after[i].Data[j] {
				t.Fatal("weights not restored after masked evaluation")
			}
		}
	}
}

func TestSearchEndToEnd(t *testing.T) {
	task := tinyLMTask(t, 2)
	l1, err := rt3.RunLevel1(task, 0.3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt3.SearchConfig{TimingMS: 60, Episodes: 4, Seed: 8}
	res, err := rt3.Search(task, l1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best solution")
	}
	if len(res.Best.Levels) != 3 {
		t.Fatalf("best has %d levels", len(res.Best.Levels))
	}
	for _, ls := range res.Best.Levels {
		if ls.LatencyMS > cfg.TimingMS {
			t.Fatalf("best solution violates timing at %s: %g ms", ls.Level.Name, ls.LatencyMS)
		}
		if ls.Runs <= 0 {
			t.Fatal("non-positive runs")
		}
	}
	if len(res.Explored) != cfg.Episodes {
		t.Fatalf("explored %d points", len(res.Explored))
	}
	front := res.ParetoFront()
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	// front must be non-dominated: accs strictly decreasing, runs strictly increasing
	for i := 1; i < len(front); i++ {
		if front[i].WeightedAcc > front[i-1].WeightedAcc || front[i].TotalRuns <= front[i-1].TotalRuns {
			t.Fatalf("Pareto front not monotone: %+v", front)
		}
	}
}

func TestHeuristicSolutionFeasible(t *testing.T) {
	task := tinyLMTask(t, 1)
	l1, err := rt3.RunLevel1(task, 0.3, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	const timingMS = 60
	pr := rt3.NewPredictor(task)
	rng := rand.New(rand.NewSource(10))
	space, err := rt3.BuildSearchSpace(task, l1.Masks, pr, timingMS, rng)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := rt3.HeuristicSolution(task, l1, space, timingMS, pr)
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range sol.Levels {
		if ls.LatencyMS > timingMS {
			t.Fatalf("heuristic violates timing: %g", ls.LatencyMS)
		}
	}
	// the slower level must need at least as much sparsity
	if sol.Levels[1].Sparsity < sol.Levels[0].Sparsity-1e-9 {
		t.Fatalf("slower level has lower sparsity: %v vs %v", sol.Levels[1].Sparsity, sol.Levels[0].Sparsity)
	}
}

func TestGLUETaskPipelines(t *testing.T) {
	for _, name := range []string{"RTE", "STS-B"} {
		name := name
		t.Run(name, func(t *testing.T) {
			task := tinyGLUETask(t, name, 2)
			m := task.Evaluate()
			if math.IsNaN(m) {
				t.Fatal("metric is NaN")
			}
			l1, err := rt3.RunLevel1(task, 0.3, rand.New(rand.NewSource(12)))
			if err != nil {
				t.Fatal(err)
			}
			if l1.Sparsity < 0.2 {
				t.Fatalf("sparsity %g", l1.Sparsity)
			}
		})
	}
}

func TestIndividualTrainRestoresState(t *testing.T) {
	task := tinyLMTask(t, 1)
	prunable := task.PrunableParams()
	rng := rand.New(rand.NewSource(13))
	masks := [][]*matMatrix{
		rt3.BuildMasks(prunable, nil, newPatternSet(0.4, rng)),
		rt3.BuildMasks(prunable, nil, newPatternSet(0.6, rng)),
	}
	before := rt3.SnapshotWeights(task.Params())
	accs := rt3.IndividualTrain(task, masks, 1, rng)
	if len(accs) != 2 {
		t.Fatalf("accs %v", accs)
	}
	after := rt3.SnapshotWeights(task.Params())
	for i := range before {
		for j := range before[i].Data {
			if before[i].Data[j] != after[i].Data[j] {
				t.Fatal("IndividualTrain did not restore weights")
			}
		}
	}
}
