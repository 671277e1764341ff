// Package sparse is the pattern execution format: what a device runs
// after an RT3 level switch. A Pattern is built from a weight matrix and
// a pattern set (PackSet), keeps the paper's dictionary storage model
// for its accounting (NNZ, IndexWords: one id per tile plus the shared
// dictionary) and, for execution, repacks the kept weights once into
// per-column streams that run through mat.GemmLanes, the lane-parallel
// AVX micro-kernel (with a portable twin). Products are destination
// passing (MulInto, zero allocations in steady state), cost work
// proportional to the kept weights and are bit-identical to dense
// execution over the masked matrix.
//
// The storage costs of the formats the paper compares against (COO,
// block-structured) are an analytic model in internal/prune (CostCOO,
// CostBlockStructured, CostPattern); they have no execution format here.
package sparse

import (
	"fmt"

	"rt3/internal/mat"
	"rt3/internal/pattern"
)

// Pattern is the PP execution format. Its storage model is the paper's:
// the matrix is tiled into psize x psize blocks, each tile stores a
// pattern id into a small shared dictionary plus the values at the
// pattern's kept positions — that is what NNZ and IndexWords report.
// For execution the kept values are repacked once, at build time, into
// per-column ascending-k streams (mat.LaneWeights) and every product
// runs through the lane-parallel micro-kernel mat.GemmLanes: work is
// proportional to the kept weights, and results are bit-identical to
// dense execution over the masked matrix. The streams index rows with 16
// bits, so a Pattern holds at most mat.LaneMaxK (65535) input rows.
type Pattern struct {
	Rows, Cols, PSize int

	// nnz and indexWords are the dictionary storage model: every kept
	// position of every tile, one id per tile plus the dictionary offsets.
	nnz, indexWords int
	// w holds the kept weights, the only copy of the values.
	w *mat.LaneWeights
}

// NewPattern packs w given the per-tile pattern choices. bits[i] holds
// pattern i's psize*psize 0/1 mask; choices lists the pattern id of each
// tile in row-major order (as returned by pattern.Set.Choose). It is an
// error for w to have more than mat.LaneMaxK rows.
func NewPattern(w *mat.Matrix, psize int, bits [][]uint8, choices []int) (*Pattern, error) {
	if psize <= 0 {
		return nil, fmt.Errorf("sparse: pattern size %d", psize)
	}
	p := &Pattern{Rows: w.Rows, Cols: w.Cols, PSize: psize}
	// dict[i] lists the kept (r, c) offsets of pattern i within a tile,
	// row-major, so a column's kept rows come up in ascending order.
	dict := make([][][2]int, len(bits))
	for id, bm := range bits {
		if len(bm) != psize*psize {
			return nil, fmt.Errorf("sparse: pattern bitmap len %d != %d", len(bm), psize*psize)
		}
		dict[id] = pattern.Pattern{Size: psize, Bits: bm}.Kept()
		p.indexWords += len(dict[id])
	}
	tiles := ((w.Rows + psize - 1) / psize) * ((w.Cols + psize - 1) / psize)
	if len(choices) != tiles {
		return nil, fmt.Errorf("sparse: %d choices for %d tiles", len(choices), tiles)
	}
	for _, id := range choices {
		if id < 0 || id >= len(dict) {
			return nil, fmt.Errorf("sparse: pattern id %d out of dict %d", id, len(dict))
		}
		p.nnz += len(dict[id])
	}
	p.indexWords += tiles

	// count: an interior tile adds its pattern's per-column kept counts,
	// a tile cut short by the bottom edge counts its in-range positions
	colKept := make([][]int32, len(dict))
	for id, offs := range dict {
		colKept[id] = make([]int32, psize)
		for _, o := range offs {
			colKept[id][o[1]]++
		}
	}
	counts := make([]int32, w.Cols)
	t := 0
	for r0 := 0; r0 < w.Rows; r0 += psize {
		for c0 := 0; c0 < w.Cols; c0 += psize {
			id := choices[t]
			t++
			if r0+psize <= w.Rows {
				for j, n := range counts[c0:min(c0+psize, w.Cols)] {
					counts[c0+j] = n + colKept[id][j]
				}
				continue
			}
			for _, o := range dict[id] {
				if r0+o[0] < w.Rows && c0+o[1] < w.Cols {
					counts[c0+o[1]]++
				}
			}
		}
	}
	lw, err := mat.NewLaneWeights(w.Rows, w.Cols, counts)
	if err != nil {
		return nil, fmt.Errorf("sparse: %w", err)
	}
	// fill: tile by tile, so every column sees its rows in ascending
	// order, each through its own cursor
	cur := lw.Cursors()
	t = 0
	for r0 := 0; r0 < w.Rows; r0 += psize {
		for c0 := 0; c0 < w.Cols; c0 += psize {
			for _, o := range dict[choices[t]] {
				r, c := r0+o[0], c0+o[1]
				if r >= w.Rows || c >= w.Cols {
					continue
				}
				lw.Store(cur[c], r, w.Data[r*w.Cols+c])
				cur[c] += mat.LaneGroup
			}
			t++
		}
	}
	p.w = lw
	return p, nil
}

// Dims returns the logical (rows, cols) of the stored weight matrix.
func (p *Pattern) Dims() (rows, cols int) { return p.Rows, p.Cols }

// NNZ returns the stored value count of the dictionary storage model:
// every kept position of every tile.
func (p *Pattern) NNZ() int { return p.nnz }

// IndexWords returns the stored index words: one id per tile plus the
// shared dictionary offsets.
func (p *Pattern) IndexWords() int { return p.indexWords }

// MulInto computes dst = X @ W for X batch x Rows into the pre-allocated
// batch x Cols destination, allocation-free in steady state and safe for
// concurrent calls on disjoint destinations; mat.GemmLanes panics on any
// other shape.
func (p *Pattern) MulInto(dst, x *mat.Matrix) {
	mat.GemmLanes(dst, x, p.w)
}
