// Package prune implements Level 1 of RT3: hardware-friendly
// block-structured pruning (BP, Algorithm 1 of the paper), its random
// baseline rBP, and the sparse-storage accounting (COO versus block
// formats) that motivates BP's hardware efficiency argument.
package prune

import (
	"fmt"
	"math/rand"
	"sort"

	"rt3/internal/mat"
)

// Direction selects whether whole columns are pruned inside row-wise
// blocks or whole rows inside column-wise blocks.
type Direction int

// Pruning directions.
const (
	// ColumnsInRowBlocks divides the matrix into k row-wise blocks and
	// prunes entire columns within each block (the example of Fig. 1).
	ColumnsInRowBlocks Direction = iota
	// RowsInColBlocks divides into k column-wise blocks and prunes rows.
	RowsInColBlocks
)

// BPConfig configures block-structured pruning.
type BPConfig struct {
	Blocks    int // number k of row- or column-wise blocks
	Direction Direction
	// Threshold prunes groups whose l2 norm is below this absolute value.
	// Ignored when Percentile > 0.
	Threshold float64
	// Percentile, when in (0,1], prunes that fraction of lowest-l2 groups
	// per block (the paper decides the cut "by threshold or percentile").
	Percentile float64
}

// Validate reports configuration errors.
func (c BPConfig) Validate() error {
	if c.Blocks < 1 {
		return fmt.Errorf("prune: Blocks must be >= 1, got %d", c.Blocks)
	}
	if c.Percentile < 0 || c.Percentile > 1 {
		return fmt.Errorf("prune: Percentile must be in [0,1], got %g", c.Percentile)
	}
	if c.Percentile == 0 && c.Threshold < 0 {
		return fmt.Errorf("prune: Threshold must be >= 0, got %g", c.Threshold)
	}
	return nil
}

// blockBounds returns the [start, end) boundaries dividing n into k
// nearly equal spans.
func blockBounds(n, k int) [][2]int {
	if k > n {
		k = n
	}
	out := make([][2]int, 0, k)
	for b := 0; b < k; b++ {
		lo := b * n / k
		hi := (b + 1) * n / k
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// BlockPrune runs Algorithm 1 on w and returns a 0/1 mask of the same
// shape: groups (rows or columns within a block) whose l2 norm falls
// below the cut are zeroed. w itself is not modified.
func BlockPrune(w *mat.Matrix, cfg BPConfig) (*mat.Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mask := mat.New(w.Rows, w.Cols)
	mask.Fill(1)
	switch cfg.Direction {
	case ColumnsInRowBlocks:
		for _, b := range blockBounds(w.Rows, cfg.Blocks) {
			norms := make([]float64, w.Cols)
			for j := 0; j < w.Cols; j++ {
				norms[j] = w.ColL2(j, b[0], b[1])
			}
			for _, j := range groupsToPrune(norms, cfg) {
				for i := b[0]; i < b[1]; i++ {
					mask.Set(i, j, 0)
				}
			}
		}
	case RowsInColBlocks:
		for _, b := range blockBounds(w.Cols, cfg.Blocks) {
			norms := make([]float64, w.Rows)
			for i := 0; i < w.Rows; i++ {
				norms[i] = w.RowL2(i, b[0], b[1])
			}
			for _, i := range groupsToPrune(norms, cfg) {
				for j := b[0]; j < b[1]; j++ {
					mask.Set(i, j, 0)
				}
			}
		}
	default:
		return nil, fmt.Errorf("prune: unknown direction %d", cfg.Direction)
	}
	return mask, nil
}

// groupsToPrune returns the indices whose norms fall below the cut
// implied by cfg (absolute threshold or per-block percentile).
func groupsToPrune(norms []float64, cfg BPConfig) []int {
	var out []int
	if cfg.Percentile > 0 {
		n := len(norms)
		k := int(cfg.Percentile * float64(n))
		if k <= 0 {
			return nil
		}
		if k >= n {
			k = n - 1 // never remove every group in a block
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return norms[idx[a]] < norms[idx[b]] })
		out = append(out, idx[:k]...)
		sort.Ints(out)
		return out
	}
	for i, v := range norms {
		if v < cfg.Threshold {
			out = append(out, i)
		}
	}
	return out
}

// RandomBlockPrune is the paper's rBP baseline: it prunes the same
// number of groups per block as BlockPrune would, but picks them
// uniformly at random instead of by l2 norm.
func RandomBlockPrune(w *mat.Matrix, cfg BPConfig, rng *rand.Rand) (*mat.Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mask := mat.New(w.Rows, w.Cols)
	mask.Fill(1)
	switch cfg.Direction {
	case ColumnsInRowBlocks:
		for _, b := range blockBounds(w.Rows, cfg.Blocks) {
			norms := make([]float64, w.Cols)
			for j := 0; j < w.Cols; j++ {
				norms[j] = w.ColL2(j, b[0], b[1])
			}
			k := len(groupsToPrune(norms, cfg))
			for _, j := range rng.Perm(w.Cols)[:k] {
				for i := b[0]; i < b[1]; i++ {
					mask.Set(i, j, 0)
				}
			}
		}
	case RowsInColBlocks:
		for _, b := range blockBounds(w.Cols, cfg.Blocks) {
			norms := make([]float64, w.Rows)
			for i := 0; i < w.Rows; i++ {
				norms[i] = w.RowL2(i, b[0], b[1])
			}
			k := len(groupsToPrune(norms, cfg))
			for _, i := range rng.Perm(w.Rows)[:k] {
				for j := b[0]; j < b[1]; j++ {
					mask.Set(i, j, 0)
				}
			}
		}
	default:
		return nil, fmt.Errorf("prune: unknown direction %d", cfg.Direction)
	}
	return mask, nil
}
