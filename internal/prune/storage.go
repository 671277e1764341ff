package prune

import (
	"math"

	"rt3/internal/mat"
)

// Format identifies a sparse weight storage layout. The paper's
// hardware-efficiency argument for BP is that excluding whole
// rows/columns within blocks needs far fewer indices than COO.
type Format int

// Storage formats.
const (
	// FormatDense stores every element, no indices.
	FormatDense Format = iota
	// FormatCOO stores (row, col, value) triples for each nonzero, the
	// layout irregular pruning is forced into.
	FormatCOO
	// FormatBlockStructured stores nonzero values plus, per block, the
	// list of surviving row/column indices.
	FormatBlockStructured
	// FormatPattern stores nonzero values plus one pattern id per block
	// (the pattern set itself is shared and tiny).
	FormatPattern
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatDense:
		return "dense"
	case FormatCOO:
		return "COO"
	case FormatBlockStructured:
		return "block"
	case FormatPattern:
		return "pattern"
	}
	return "unknown"
}

// StorageCost summarizes the memory footprint of a sparse layout.
type StorageCost struct {
	Format     Format
	Values     int // stored value words
	Indices    int // stored index words
	TotalWords int // Values + Indices
}

// CostDense returns the footprint of a rows x cols matrix in the dense
// layout.
func CostDense(rows, cols int) StorageCost {
	n := rows * cols
	return StorageCost{Format: FormatDense, Values: n, Indices: 0, TotalWords: n}
}

// CostCOO returns the footprint of the COO layout for the masked matrix:
// one value word plus two index words (row, col) per nonzero.
func CostCOO(mask *mat.Matrix) StorageCost {
	nnz := mask.NNZ()
	return StorageCost{Format: FormatCOO, Values: nnz, Indices: 2 * nnz, TotalWords: 3 * nnz}
}

// CostBlockStructured returns the footprint of BP storage under cfg:
// nonzero values plus one index word per surviving group per block.
func CostBlockStructured(mask *mat.Matrix, cfg BPConfig) StorageCost {
	nnz := mask.NNZ()
	indices := 0
	if cfg.Direction == ColumnsInRowBlocks {
		for _, b := range blockBounds(mask.Rows, cfg.Blocks) {
			for j := 0; j < mask.Cols; j++ {
				if mask.ColL2(j, b[0], b[1]) > 0 {
					indices++
				}
			}
		}
	} else {
		for _, b := range blockBounds(mask.Cols, cfg.Blocks) {
			for i := 0; i < mask.Rows; i++ {
				if mask.RowL2(i, b[0], b[1]) > 0 {
					indices++
				}
			}
		}
	}
	return StorageCost{Format: FormatBlockStructured, Values: nnz, Indices: indices, TotalWords: nnz + indices}
}

// CostPattern returns the footprint of pattern storage: nonzero values,
// one pattern-id word per psize x psize block, plus the shared pattern
// set (numPatterns * psize * psize bits, counted in words).
func CostPattern(mask *mat.Matrix, psize, numPatterns int) StorageCost {
	nnz := mask.NNZ()
	blocksR := (mask.Rows + psize - 1) / psize
	blocksC := (mask.Cols + psize - 1) / psize
	ids := blocksR * blocksC
	// pattern bitmasks: psize*psize bits each, 64 bits per word
	setWords := numPatterns * ((psize*psize + 63) / 64)
	return StorageCost{Format: FormatPattern, Values: nnz, Indices: ids + setWords, TotalWords: nnz + ids + setWords}
}

// CompressionRatio converts a sparsity fraction into the paper's
// "x-fold compression" convention (e.g. 0.5 sparsity -> 2x).
func CompressionRatio(sparsity float64) float64 {
	if sparsity >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - sparsity)
}
