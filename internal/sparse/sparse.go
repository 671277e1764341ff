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
	"math"

	"rt3/internal/mat"
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
	if psize*w.Cols > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: pattern size %d over %d columns", psize, w.Cols)
	}
	p := &Pattern{Rows: w.Rows, Cols: w.Cols, PSize: psize}
	// dict[id] lists the kept positions of pattern id within a tile,
	// row-major, so a column's kept rows come up in ascending order;
	// colKept[id*psize+j] counts column j's
	dict, colKept := make([][]keptPos, len(bits)), make([]int32, len(bits)*psize)
	for id, bm := range bits {
		if len(bm) != psize*psize {
			return nil, fmt.Errorf("sparse: pattern bitmap len %d != %d", len(bm), psize*psize)
		}
		for o, b := range bm {
			if b != 0 {
				i, j := o/psize, o%psize
				dict[id] = append(dict[id], keptPos{off: int32(i*w.Cols + j), i: uint16(i), j: uint16(j)})
				colKept[id*psize+j]++
			}
		}
		p.indexWords += len(dict[id])
	}
	tileCols := (w.Cols + psize - 1) / psize
	tiles := ((w.Rows + psize - 1) / psize) * tileCols
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
	counts := make([]int32, w.Cols)
	for r0, t := 0, 0; r0 < w.Rows; r0, t = r0+psize, t+tileCols {
		for tc, id := range choices[t : t+tileCols] {
			c0 := tc * psize
			if r0+psize <= w.Rows {
				for j, n := range colKept[id*psize:][:min(psize, w.Cols-c0)] {
					counts[c0+j] += n
				}
				continue
			}
			for _, o := range dict[id] {
				if r0+int(o.i) < w.Rows && c0+int(o.j) < w.Cols {
					counts[c0+int(o.j)]++
				}
			}
		}
	}
	lw, err := mat.NewLaneWeights(w.Rows, w.Cols, counts)
	if err != nil {
		return nil, fmt.Errorf("sparse: %w", err)
	}
	// fill: tile by tile, so every column sees its rows in ascending
	// order, each through its own cursor; only a tile that runs past an
	// edge checks its positions
	cur := lw.Cursors()
	for r0, t := 0, 0; r0 < w.Rows; r0, t = r0+psize, t+tileCols {
		for tc, id := range choices[t : t+tileCols] {
			c0 := tc * psize
			tile, cs := w.Data[r0*w.Cols+c0:], cur[c0:]
			if r0+psize > w.Rows || c0+psize > w.Cols {
				for _, o := range dict[id] {
					if r := r0 + int(o.i); r < w.Rows && c0+int(o.j) < w.Cols {
						lw.Store(cs[o.j], r, tile[o.off])
						cs[o.j] += mat.LaneGroup
					}
				}
				continue
			}
			for _, o := range dict[id] {
				at := cs[o.j]
				lw.Store(at, r0+int(o.i), tile[o.off])
				cs[o.j] = at + mat.LaneGroup
			}
		}
	}
	p.w = lw
	return p, nil
}

// keptPos is a kept position (i, j) of a pattern, with its offset
// i*cols+j in the matrix being packed.
type keptPos struct {
	off  int32
	i, j uint16
}

// packAll is NewPattern(w, 1, [][]uint8{{1}}, every tile choosing
// pattern 0) without the tiles: every column keeps every row.
func packAll(w *mat.Matrix) (*Pattern, error) {
	counts := make([]int32, w.Cols)
	for c := range counts {
		counts[c] = int32(w.Rows)
	}
	lw, err := mat.NewLaneWeights(w.Rows, w.Cols, counts)
	if err != nil {
		return nil, fmt.Errorf("sparse: %w", err)
	}
	cur := lw.Cursors()
	for r := 0; r < w.Rows; r++ {
		for c, v := range w.Data[r*w.Cols:][:w.Cols] {
			lw.Store(cur[c], r, v)
			cur[c] += mat.LaneGroup
		}
	}
	n := w.Rows * w.Cols
	return &Pattern{Rows: w.Rows, Cols: w.Cols, PSize: 1, nnz: n, indexWords: n + 1, w: lw}, nil
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
