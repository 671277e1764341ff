package prune

import (
	"math"

	"rt3/internal/mat"
)

// GroupLasso implements the reweighted group-lasso regularizer the paper
// uses to orchestrate block-structured pruning during training: each
// group (a column within a row-block, or a row within a column-block)
// contributes w_g * ||W_g||_2 to the loss, and the reweighting step sets
// w_g = 1 / (||W_g||_2 + eps) so already-small groups are pushed harder
// toward zero.
type GroupLasso struct {
	Cfg     BPConfig
	Lambda  float64
	Eps     float64
	weights map[*mat.Matrix][]float64 // per-matrix group reweights
}

// NewGroupLasso creates a reweighted group-lasso with strength lambda.
func NewGroupLasso(cfg BPConfig, lambda float64) *GroupLasso {
	return &GroupLasso{Cfg: cfg, Lambda: lambda, Eps: 1e-3, weights: make(map[*mat.Matrix][]float64)}
}

// groupNorms returns the l2 norm of every group of w in a stable order
// (block-major) along with closures mapping group index -> elements.
func (g *GroupLasso) groupNorms(w *mat.Matrix) (norms []float64, apply func(gi int, f func(i, j int))) {
	type group struct {
		b   [2]int
		idx int
	}
	var groups []group
	if g.Cfg.Direction == ColumnsInRowBlocks {
		for _, b := range blockBounds(w.Rows, g.Cfg.Blocks) {
			for j := 0; j < w.Cols; j++ {
				groups = append(groups, group{b, j})
				norms = append(norms, w.ColL2(j, b[0], b[1]))
			}
		}
		apply = func(gi int, f func(i, j int)) {
			gr := groups[gi]
			for i := gr.b[0]; i < gr.b[1]; i++ {
				f(i, gr.idx)
			}
		}
	} else {
		for _, b := range blockBounds(w.Cols, g.Cfg.Blocks) {
			for i := 0; i < w.Rows; i++ {
				groups = append(groups, group{b, i})
				norms = append(norms, w.RowL2(i, b[0], b[1]))
			}
		}
		apply = func(gi int, f func(i, j int)) {
			gr := groups[gi]
			for j := gr.b[0]; j < gr.b[1]; j++ {
				f(gr.idx, j)
			}
		}
	}
	return norms, apply
}

// Reweight recomputes the per-group weights from the current values of
// w (call between training epochs, per the reweighted-l1 schedule).
func (g *GroupLasso) Reweight(w *mat.Matrix) {
	norms, _ := g.groupNorms(w)
	ws := make([]float64, len(norms))
	for i, n := range norms {
		ws[i] = 1 / (n + g.Eps)
	}
	g.weights[w] = ws
}

// AddGrad accumulates into grad (same shape as w) the gradient of the
// penalty lambda * sum_g w_g ||W_g||_2, unweighted (w_g = 1) until
// Reweight has been called.
func (g *GroupLasso) AddGrad(grad, w *mat.Matrix) {
	norms, apply := g.groupNorms(w)
	ws := g.weights[w]
	for gi, n := range norms {
		if n < 1e-12 {
			continue // subgradient 0 at the origin
		}
		wg := 1.0
		if ws != nil {
			wg = ws[gi]
		}
		coef := g.Lambda * wg / n
		apply(gi, func(i, j int) {
			grad.Set(i, j, grad.At(i, j)+coef*w.At(i, j))
		})
	}
}

// CompressionRatio converts a sparsity fraction into the paper's
// "x-fold compression" convention (e.g. 0.5 sparsity -> 2x).
func CompressionRatio(sparsity float64) float64 {
	if sparsity >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - sparsity)
}
