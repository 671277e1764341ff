// Package rt3 is the paper's primary contribution: the two-level
// pruning-based AutoML framework. Level 1 applies block-structured
// pruning to obtain a fixed backbone; Level 2 searches pattern sets with
// an RNN reinforcement-learning controller so that one lightweight
// pattern set per DVFS voltage/frequency level can be swapped at run
// time while always meeting the timing constraint.
package rt3

import (
	"fmt"
	"math/rand"

	"rt3/internal/data"
	"rt3/internal/mat"
	"rt3/internal/metrics"
	"rt3/internal/nn"
	"rt3/internal/transformer"
)

// TaskModel abstracts the two workloads the paper evaluates (Transformer
// LM on WikiText-2; DistilBERT-style classifier/regressor on GLUE) so the
// pruning and search machinery is task-agnostic.
type TaskModel interface {
	// Params returns every trainable parameter.
	Params() []*nn.Parameter
	// PrunableParams returns the weight matrices eligible for BP/PP
	// (attention and feed-forward projections; embeddings, biases and
	// LayerNorm parameters are kept dense, as in the paper's setup).
	PrunableParams() []*nn.Parameter
	// TrainStep runs forward+backward on training example i,
	// accumulating gradients.
	TrainStep(i int)
	// NumTrain returns the number of training examples.
	NumTrain() int
	// Evaluate returns the task metric on the held-out split
	// (accuracy / F1 / MCC / Spearman depending on the task).
	Evaluate() float64
	// SeqLen returns the inference sequence length (weight-reuse factor
	// for the latency model).
	SeqLen() int
	// MetricName names the evaluation metric.
	MetricName() string
}

// LMTask adapts the encoder-decoder language model to TaskModel.
type LMTask struct {
	Model *transformer.LMModel
	Train []data.LMExample
	Eval  []data.LMExample

	prunable []*nn.Parameter
}

// NewLMTask wires a language model to its corpus splits.
func NewLMTask(model *transformer.LMModel, train, eval []data.LMExample) *LMTask {
	return &LMTask{Model: model, Train: train, Eval: eval, prunable: linearWeights(model.PrunableLinears())}
}

// Params implements TaskModel.
func (t *LMTask) Params() []*nn.Parameter { return t.Model.Params() }

// PrunableParams implements TaskModel.
func (t *LMTask) PrunableParams() []*nn.Parameter { return t.prunable }

// NumTrain implements TaskModel.
func (t *LMTask) NumTrain() int { return len(t.Train) }

// SeqLen implements TaskModel.
func (t *LMTask) SeqLen() int { return t.Model.Cfg.SeqLen }

// MetricName implements TaskModel.
func (t *LMTask) MetricName() string { return "accuracy" }

// TrainStep implements TaskModel.
func (t *LMTask) TrainStep(i int) {
	ex := t.Train[i%len(t.Train)]
	_, dlogits := t.Model.Loss(ex.Input, ex.Targets)
	t.Model.Backward(dlogits)
}

// Evaluate implements TaskModel: next-word prediction accuracy.
func (t *LMTask) Evaluate() float64 {
	if len(t.Eval) == 0 {
		return 0
	}
	var acc float64
	for _, ex := range t.Eval {
		acc += t.Model.Accuracy(ex.Input, ex.Targets)
	}
	return acc / float64(len(t.Eval))
}

// GLUETask adapts the DistilBERT-style classifier to TaskModel.
type GLUETask struct {
	Model *transformer.Classifier
	Task  *data.Task

	prunable []*nn.Parameter
}

// NewGLUETask wires a classifier to a generated GLUE-style task.
func NewGLUETask(model *transformer.Classifier, task *data.Task) *GLUETask {
	return &GLUETask{Model: model, Task: task, prunable: linearWeights(model.PrunableLinears())}
}

// Params implements TaskModel.
func (t *GLUETask) Params() []*nn.Parameter { return t.Model.Params() }

// PrunableParams implements TaskModel.
func (t *GLUETask) PrunableParams() []*nn.Parameter { return t.prunable }

// NumTrain implements TaskModel.
func (t *GLUETask) NumTrain() int { return len(t.Task.Train) }

// SeqLen implements TaskModel.
func (t *GLUETask) SeqLen() int { return t.Task.Spec.SeqLen }

// MetricName implements TaskModel.
func (t *GLUETask) MetricName() string { return t.Task.Spec.Kind.String() }

// TrainStep implements TaskModel.
func (t *GLUETask) TrainStep(i int) {
	ex := t.Task.Train[i%len(t.Task.Train)]
	out := t.Model.Forward(ex.Tokens)
	if t.Task.Spec.Classes == 1 {
		_, grad := nn.MSELoss(out, []float64{ex.Score})
		t.Model.Backward(grad)
		return
	}
	_, grad := nn.SoftmaxCrossEntropy(out, []int{ex.Label})
	t.Model.Backward(grad)
}

// Evaluate implements TaskModel, scoring with the task's GLUE metric.
func (t *GLUETask) Evaluate() float64 {
	ev := t.Task.Eval
	if len(ev) == 0 {
		return 0
	}
	if t.Task.Spec.Classes == 1 {
		pred := make([]float64, len(ev))
		gold := make([]float64, len(ev))
		for i, ex := range ev {
			pred[i] = t.Model.Forward(ex.Tokens).At(0, 0)
			gold[i] = ex.Score
		}
		return metrics.SpearmanRho(pred, gold)
	}
	pred := make([]int, len(ev))
	gold := make([]int, len(ev))
	for i, ex := range ev {
		pred[i] = t.Model.Forward(ex.Tokens).ArgmaxRow(0)
		gold[i] = ex.Label
	}
	switch t.Task.Spec.Kind {
	case data.KindF1:
		return metrics.F1(pred, gold)
	case data.KindMCC:
		return metrics.MCC(pred, gold)
	default:
		return metrics.Accuracy(pred, gold)
	}
}

// linearWeights returns the weight matrix of each linear, in order: the
// models' PrunableLinears (attention and feed-forward projections) are
// what BP and PP prune, as in serving.
func linearWeights(lins []*nn.Linear) []*nn.Parameter {
	out := make([]*nn.Parameter, len(lins))
	for i, l := range lins {
		out[i] = l.W
	}
	return out
}

// clipNorm is the global gradient-norm clip of every training phase.
const clipNorm = 5

// Trainer runs plain (dense or masked) training on a TaskModel.
type Trainer struct {
	task  TaskModel
	optim nn.Optimizer
}

// NewTrainer returns a Trainer with Adam and gradient clipping.
func NewTrainer(task TaskModel, lr float64) *Trainer {
	return &Trainer{task: task, optim: nn.NewAdam(lr)}
}

// epoch runs one pass over the training set with the given batch size
// (gradient accumulation across batch examples).
func (tr *Trainer) epoch(batch int, rng *rand.Rand) {
	n := tr.task.NumTrain()
	if n == 0 {
		return
	}
	if batch < 1 {
		batch = 1
	}
	order := rng.Perm(n)
	params := tr.task.Params()
	for b := 0; b < n; b += batch {
		nn.ZeroGrads(params)
		end := b + batch
		if end > n {
			end = n
		}
		for _, i := range order[b:end] {
			tr.task.TrainStep(i)
		}
		scale := 1 / float64(end-b)
		for _, p := range params {
			p.Grad.Scale(scale)
		}
		nn.ClipGrads(params, clipNorm)
		tr.optim.Step(params)
	}
}

// Fit runs epochs passes and returns the final evaluation metric.
func (tr *Trainer) Fit(epochs, batch int, rng *rand.Rand) float64 {
	for e := 0; e < epochs; e++ {
		tr.epoch(batch, rng)
	}
	return tr.task.Evaluate()
}

// SnapshotWeights deep-copies the current values of params.
func SnapshotWeights(params []*nn.Parameter) []*mat.Matrix {
	out := make([]*mat.Matrix, len(params))
	for i, p := range params {
		out[i] = p.Value.Clone()
	}
	return out
}

// RestoreWeights writes a snapshot back into params.
func RestoreWeights(params []*nn.Parameter, snap []*mat.Matrix) {
	if len(params) != len(snap) {
		panic(fmt.Sprintf("rt3: snapshot size %d != params %d", len(snap), len(params)))
	}
	for i, p := range params {
		p.Value.CopyFrom(snap[i])
	}
}
