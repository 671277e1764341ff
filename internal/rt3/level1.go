package rt3

import (
	"math/rand"

	"rt3/internal/mat"
	"rt3/internal/nn"
	"rt3/internal/prune"
)

// Level 1's fixed settings: BP prunes columns inside bpBlocks row-wise
// blocks, then the surviving weights fine-tune for finetuneEpochs.
const (
	bpBlocks       = 4
	finetuneEpochs = 2
)

// Level1Result is the fixed backbone model produced by Level 1.
type Level1Result struct {
	// Masks holds the BP mask for each prunable parameter, aligned with
	// TaskModel.PrunableParams().
	Masks []*mat.Matrix
	// Sparsity is the overall fraction of pruned weights among the
	// prunable parameters.
	Sparsity float64
	// Metric is the task metric after fine-tuning the backbone.
	Metric float64
}

// RunLevel1 applies BP (Algorithm 1) at the given column-norm percentile
// to every prunable parameter of the task, attaches the masks,
// fine-tunes, and returns the backbone result. The masks stay attached
// to the parameters afterwards.
func RunLevel1(task TaskModel, percentile float64, rng *rand.Rand) (*Level1Result, error) {
	return runLevel1(task, percentile, rng, false)
}

// RunRandomLevel1 is the rBP ablation: identical pipeline but the pruned
// groups are chosen uniformly at random.
func RunRandomLevel1(task TaskModel, percentile float64, rng *rand.Rand) (*Level1Result, error) {
	return runLevel1(task, percentile, rng, true)
}

func runLevel1(task TaskModel, percentile float64, rng *rand.Rand, random bool) (*Level1Result, error) {
	prunable := task.PrunableParams()
	bp := prune.BPConfig{Blocks: bpBlocks, Direction: prune.ColumnsInRowBlocks, Percentile: percentile}

	res := &Level1Result{}
	for _, p := range prunable {
		var mask *mat.Matrix
		var err error
		if random {
			mask, err = prune.RandomBlockPrune(p.Value, bp, rng)
		} else {
			mask, err = prune.BlockPrune(p.Value, bp)
		}
		if err != nil {
			return nil, err
		}
		p.SetMask(mask)
		res.Masks = append(res.Masks, mask)
	}
	res.Sparsity = nn.GlobalSparsity(prunable)

	res.Metric = NewTrainer(task, lr).Fit(finetuneEpochs, batch, rng)
	return res, nil
}
