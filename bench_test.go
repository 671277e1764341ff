// Package bench is the top-level benchmark harness: one benchmark per
// table and figure of the paper's evaluation section (regenerating the
// artifact and reporting its headline numbers as custom metrics), plus
// ablation benches for the choices RT3's method rests on (pattern size,
// the search-space width theta, joint training, the storage formats
// pattern is weighed against) and micro-benchmarks of the hot kernels.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or print the full formatted tables with cmd/rt3bench.
package bench

import (
	"math/rand"
	"testing"

	"rt3/internal/deploy"
	"rt3/internal/dvfs"
	"rt3/internal/experiments"
	"rt3/internal/hwsim"
	"rt3/internal/mat"
	"rt3/internal/pattern"
	"rt3/internal/prune"
	"rt3/internal/rt3"
	"rt3/internal/transformer"
)

// BenchmarkTableI regenerates the V/F level table (Table I).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.TableI(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableII regenerates the E1/E2/E3 reconfiguration comparison
// (Table II) and reports the E3-over-E1 improvement in runs.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableII(experiments.ScaleTiny)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[2].Improvement, "E3/E1_runs")
		b.ReportMetric(res.Rows[1].Improvement, "E2/E1_runs")
	}
}

// BenchmarkTableIII regenerates the AutoML results (Table III) for each
// dataset/constraint, reporting the mean RT3-vs-UB metric gap and the
// switch-time speedup.
func BenchmarkTableIII(b *testing.B) {
	for _, spec := range experiments.DefaultTable3Specs() {
		spec := spec
		name := spec.Dataset + "_T" + itoa(int(spec.TimingMS))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.TableIII(experiments.ScaleTiny, spec)
				if err != nil {
					b.Fatal(err)
				}
				var gap float64
				for _, sm := range res.SubModels {
					gap += sm.MetricGap
				}
				b.ReportMetric(gap/float64(len(res.SubModels)), "mean_UB_gap")
				b.ReportMetric(res.UBInterruptMS/res.RTInterruptMS, "switch_speedup")
			}
		})
	}
}

// BenchmarkTableIV regenerates the six-method ablation (Table IV) per
// dataset, reporting RT3's runs improvement and metric loss.
func BenchmarkTableIV(b *testing.B) {
	for _, ds := range []string{"WikiText-2", "RTE", "STS-B"} {
		ds := ds
		b.Run(ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.TableIV(experiments.ScaleTiny, ds)
				if err != nil {
					b.Fatal(err)
				}
				for _, row := range res.Rows {
					if row.Method == rt3.MethodRT3 {
						b.ReportMetric(row.Improvement, "RT3_runs_impr")
						b.ReportMetric(row.MetricLoss, "RT3_metric_loss")
					}
				}
			}
		})
	}
}

// BenchmarkFigure3a regenerates the Pareto-frontier exploration.
func BenchmarkFigure3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3a(experiments.ScaleTiny)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.LooseFront)), "loose_front_pts")
		b.ReportMetric(float64(len(res.TightFront)), "tight_front_pts")
	}
}

// BenchmarkFigure3bc regenerates the best-solution accuracy/sparsity
// panels for the loose constraint.
func BenchmarkFigure3bc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3bc(experiments.ScaleTiny, 104)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OriginalAcc, "original_acc")
		b.ReportMetric(res.BackboneAcc, "backbone_acc")
	}
}

// BenchmarkFigure4 regenerates the pattern visualizations.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(experiments.ScaleTiny)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Sparsities[len(res.Sparsities)-1], "sparsest_pattern")
	}
}

// BenchmarkFigure5 regenerates the BP evaluation across GLUE +
// WikiText-2, reporting mean score loss.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(experiments.ScaleTiny)
		if err != nil {
			b.Fatal(err)
		}
		var loss float64
		for _, row := range res.Rows {
			loss += row.ScoreLoss
		}
		b.ReportMetric(loss/float64(len(res.Rows)), "mean_score_loss")
	}
}

// BenchmarkAblationPatternSize sweeps the pattern size (the paper fixes
// psize=100 for the full model; here the trade-off between mask
// granularity and achievable sparsity control is probed at 2/4/8).
func BenchmarkAblationPatternSize(b *testing.B) {
	task := experiments.NewLMTask(experiments.ScaleTiny, 7)
	rng := rand.New(rand.NewSource(8))
	l1, err := rt3.RunLevel1(task, experiments.DefaultLevel1(0.3), rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, psize := range []int{2, 4, 8} {
		psize := psize
		b.Run("psize"+itoa(psize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.DefaultSearch(experiments.ScaleTiny, 104, 9)
				cfg.CalibrateMS = 160
				cfg.Space.PSize = psize
				res, err := rt3.Search(task, l1, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Best.TotalRuns, "total_runs")
			}
		})
	}
}

// BenchmarkAblationTheta sweeps the search-space width theta (candidates
// per V/F level).
func BenchmarkAblationTheta(b *testing.B) {
	task := experiments.NewLMTask(experiments.ScaleTiny, 10)
	rng := rand.New(rand.NewSource(11))
	l1, err := rt3.RunLevel1(task, experiments.DefaultLevel1(0.3), rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, theta := range []int{1, 3, 5} {
		theta := theta
		b.Run("theta"+itoa(theta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.DefaultSearch(experiments.ScaleTiny, 104, 12)
				cfg.CalibrateMS = 160
				cfg.Space.Theta = theta
				res, err := rt3.Search(task, l1, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Best.Reward, "best_reward")
			}
		})
	}
}

// BenchmarkAblationJointTraining compares joint (shared backbone, Fig 2)
// against individual per-level training on identical masks, reporting
// the metric gap that Table III quantifies.
func BenchmarkAblationJointTraining(b *testing.B) {
	task := experiments.NewLMTask(experiments.ScaleTiny, 13)
	rng := rand.New(rand.NewSource(14))
	l1, err := rt3.RunLevel1(task, experiments.DefaultLevel1(0.3), rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.DefaultSearch(experiments.ScaleTiny, 104, 15)
	cfg.CalibrateMS = 160
	res, err := rt3.Search(task, l1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	jt := rt3.JointTrainConfig{Epochs: 2, Batch: 8, LR: 2e-3}
	for i := 0; i < b.N; i++ {
		joint := rt3.JointTrain(task, res.Best.Masks, jt, rng)
		indiv := rt3.IndividualTrain(task, res.Best.Masks, jt, rng)
		var gap float64
		for j := range joint {
			gap += indiv[j] - joint[j]
		}
		b.ReportMetric(gap/float64(len(joint)), "UB_minus_joint")
	}
}

// BenchmarkAblationFormats measures the modelled latency of one
// Transformer projection at 50% sparsity across storage formats,
// the crossover argument behind BP's hardware-friendliness.
func BenchmarkAblationFormats(b *testing.B) {
	cm := hwsim.DefaultCostModel()
	shape := hwsim.LayerShape{Rows: 64, Cols: 64, Reuse: 16}
	mask := mat.New(64, 64)
	mask.Fill(1)
	rng := rand.New(rand.NewSource(16))
	for _, i := range rng.Perm(64 * 64)[:64*64/2] {
		mask.Data[i] = 0
	}
	level := dvfs.OdroidXU3Levels[2]
	cases := []struct {
		name   string
		format prune.Format
		cost   prune.StorageCost
	}{
		{"dense", prune.FormatDense, prune.CostDense(mask)},
		{"COO", prune.FormatCOO, prune.CostCOO(mask)},
		{"block", prune.FormatBlockStructured, prune.CostBlockStructured(mask, prune.BPConfig{Blocks: 4})},
		{"pattern", prune.FormatPattern, prune.CostPattern(mask, 8, 4)},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				sp := 0.5
				if c.format == prune.FormatDense {
					sp = 0
				}
				cycles = cm.LayerCycles(shape, sp, c.format, c.cost)
			}
			b.ReportMetric(hwsim.LatencyMS(cycles, level)*1000, "layer_us")
		})
	}
}

// BenchmarkMatMul measures the core dense kernel.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	a := mat.New(64, 64)
	a.Randomize(rng, 1)
	c := mat.New(64, 64)
	c.Randomize(rng, 1)
	dst := mat.New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMul(dst, a, c)
	}
}

// BenchmarkLMForward measures one language-model inference.
func BenchmarkLMForward(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	m := transformer.NewLMModel(transformer.Config{
		Vocab: 48, Dim: 24, Heads: 2, FFHidden: 48, EncLayers: 2, DecLayers: 1, SeqLen: 16,
	}, rng)
	ids := make([]int, 16)
	for i := range ids {
		ids[i] = rng.Intn(48)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(ids)
	}
}

// BenchmarkLMTrainStep measures one forward+backward pass.
func BenchmarkLMTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	m := transformer.NewLMModel(transformer.Config{
		Vocab: 48, Dim: 24, Heads: 2, FFHidden: 48, EncLayers: 2, DecLayers: 1, SeqLen: 16,
	}, rng)
	ids := make([]int, 16)
	targets := make([]int, 16)
	for i := range ids {
		ids[i] = rng.Intn(48)
		targets[i] = rng.Intn(48)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, grad := m.Loss(ids, targets)
		m.Backward(grad)
	}
}

// BenchmarkPatternApply measures applying a pattern set to a weight
// matrix (the run-time mask rebuild path).
func BenchmarkPatternApply(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	w := mat.New(96, 96)
	w.Randomize(rng, 1)
	set := pattern.RandomSet(8, 0.5, 4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Apply(w)
	}
}

// BenchmarkBlockPrune measures Algorithm 1 on a mid-size matrix.
func BenchmarkBlockPrune(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	w := mat.New(128, 128)
	w.Randomize(rng, 1)
	cfg := prune.BPConfig{Blocks: 8, Direction: prune.ColumnsInRowBlocks, Percentile: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prune.BlockPrune(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRLEpisode measures one controller sample + REINFORCE update.
func BenchmarkRLEpisode(b *testing.B) {
	benchRL(b)
}

func benchRL(b *testing.B) {
	b.Helper()
	rng := rand.New(rand.NewSource(22))
	ctrl, err := newBenchController(rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep := ctrl.Sample(rng)
		ctrl.Reinforce(ep, 0.5)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkDeployBundle measures serializing and re-loading a deployment
// bundle, and reports how small the switchable section is relative to
// the whole artifact.
func BenchmarkDeployBundle(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	w := deploy.WeightMatrix{Name: "w", Rows: 64, Cols: 64, Data: make([]float64, 64*64)}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	bundle := &deploy.Bundle{
		Weights:    []deploy.WeightMatrix{w},
		Sets:       []*pattern.Set{pattern.RandomSet(8, 0.5, 4, rng), pattern.RandomSet(8, 0.75, 4, rng)},
		LevelNames: []string{"l6", "l3"},
	}
	var data []byte
	var err error
	for i := 0; i < b.N; i++ {
		data, err = bundle.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err = deploy.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
	setBytes, err := bundle.SetBytes(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(data))/float64(setBytes), "bundle/set_ratio")
}
