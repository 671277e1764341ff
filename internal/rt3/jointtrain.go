package rt3

import (
	"math/rand"

	"rt3/internal/mat"
	"rt3/internal/nn"
)

// JointTrain trains the shared backbone through every pattern set
// simultaneously (the off-line training of Fig. 2) for the given epochs
// (ξ in the paper): for each mini-batch, the forward pass goes through
// each pattern-set mask to obtain a sub-loss, the sub-losses accumulate
// into one gradient with uniform weights, and a single backward update
// is applied to the shared weights. It returns the per-level task
// metrics evaluated under each mask.
//
// masks[level][param] aligns with task.PrunableParams(). The function
// leaves the parameters holding the trained shared weights (dense values
// restored, i.e. not masked by any single level).
func JointTrain(task TaskModel, masks [][]*mat.Matrix, epochs int, rng *rand.Rand) []float64 {
	params := task.Params()
	prunable := task.PrunableParams()
	nLevels := len(masks)
	if nLevels == 0 {
		return nil
	}
	alpha := 1 / float64(nLevels)
	optim := nn.NewAdam(lr)
	n := task.NumTrain()

	// accumulator for the weighted multi-mask gradient
	acc := make([]*mat.Matrix, len(params))
	for i, p := range params {
		acc[i] = mat.New(p.Value.Rows, p.Value.Cols)
	}

	for e := 0; e < epochs; e++ {
		order := rng.Perm(n)
		for b := 0; b < n; b += batch {
			end := b + batch
			if end > n {
				end = n
			}
			ids := order[b:end]
			for _, a := range acc {
				a.Zero()
			}
			snap := SnapshotWeights(prunable)
			for lvl := 0; lvl < nLevels; lvl++ {
				// sub-model: shared weights under this level's mask
				RestoreWeights(prunable, snap)
				for pi, p := range prunable {
					p.Value.Hadamard(masks[lvl][pi])
				}
				nn.ZeroGrads(params)
				for _, i := range ids {
					task.TrainStep(i)
				}
				// mask this level's gradient to its support and weight it
				for pi, p := range prunable {
					p.Gradient().Hadamard(masks[lvl][pi])
				}
				w := alpha / float64(len(ids))
				for i, p := range params {
					acc[i].AddScaled(p.Gradient(), w)
				}
			}
			RestoreWeights(prunable, snap)
			for i, p := range params {
				p.Gradient().CopyFrom(acc[i])
			}
			nn.ClipGrads(params, clipNorm)
			optim.Step(params)
		}
	}
	return EvaluateUnderMasks(task, masks)
}

// EvaluateUnderMasks scores the task under each level's mask ("one more
// forward propagation" of the paper), restoring the shared weights
// afterwards.
func EvaluateUnderMasks(task TaskModel, masks [][]*mat.Matrix) []float64 {
	prunable := task.PrunableParams()
	snap := SnapshotWeights(prunable)
	out := make([]float64, len(masks))
	for lvl := range masks {
		RestoreWeights(prunable, snap)
		for pi, p := range prunable {
			p.Value.Hadamard(masks[lvl][pi])
		}
		out[lvl] = task.Evaluate()
	}
	RestoreWeights(prunable, snap)
	return out
}

// IndividualTrain is the accuracy upper bound (UB) of Table III: each
// level's sub-model is trained separately from the backbone snapshot,
// which at run time would require swapping whole models. Each trains for
// the given epochs. It returns the per-level metrics and restores the
// original weights afterwards.
func IndividualTrain(task TaskModel, masks [][]*mat.Matrix, epochs int, rng *rand.Rand) []float64 {
	allParams := task.Params()
	prunable := task.PrunableParams()
	snapAll := SnapshotWeights(allParams)
	oldMasks := make([]*mat.Matrix, len(prunable))
	for i, p := range prunable {
		oldMasks[i] = p.Mask
	}
	out := make([]float64, len(masks))
	for lvl := range masks {
		RestoreWeights(allParams, snapAll)
		for pi, p := range prunable {
			p.SetMask(masks[lvl][pi].Clone())
		}
		out[lvl] = NewTrainer(task, lr).Fit(epochs, batch, rng)
	}
	for i, p := range prunable {
		p.Mask = oldMasks[i]
	}
	RestoreWeights(allParams, snapAll)
	nn.ApplyMasks(prunable)
	return out
}
