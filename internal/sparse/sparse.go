// Package sparse implements the sparse weight execution formats that the
// RT3 deployment story rests on: COO (what irregular pruning forces),
// CSR, block-CSR (what Level-1 BP enables) and pattern-packed storage
// (what Level-2 PP enables, after PatDNN-style compiler packing). Each
// format supports matrix-vector and matrix-matrix products that are
// verified element-for-element against dense execution in the tests; the
// benchmark harness uses them to ground the hwsim cost-model ordering in
// actual kernel behaviour.
//
// Every format implements the destination-passing MulInto kernel (zero
// allocations in steady state) shared with internal/kernel; MulMat is a
// thin allocating shim kept for convenience and legacy tests. COO, CSR
// and block-CSR execute as scalar Go loops over their own storage;
// Pattern, the serving default, repacks its kept weights into per-column
// streams and executes through mat.GemmLanes, the lane-parallel AVX
// micro-kernel (with a portable twin).
package sparse

import (
	"fmt"

	"rt3/internal/mat"
	"rt3/internal/pattern"
)

// checkMulShapes validates one X @ W product: x is batch x rows and dst
// is batch x cols, where the format stores a rows x cols weight matrix.
func checkMulShapes(format string, dst, x *mat.Matrix, rows, cols int) {
	if x.Cols != rows {
		panic(fmt.Sprintf("sparse: %s MulInto x cols %d != rows %d", format, x.Cols, rows))
	}
	if dst.Rows != x.Rows || dst.Cols != cols {
		panic(fmt.Sprintf("sparse: %s MulInto dst %dx%d, want %dx%d", format, dst.Rows, dst.Cols, x.Rows, cols))
	}
}

// COO stores (row, col, value) triples — the layout the paper's
// Challenge 1 attributes to irregular pruning, with two index words per
// nonzero.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Val        []float64
}

// NewCOO packs the nonzeros of w.
func NewCOO(w *mat.Matrix) *COO {
	c := &COO{Rows: w.Rows, Cols: w.Cols}
	for i := 0; i < w.Rows; i++ {
		row := w.Row(i)
		for j, v := range row {
			if v != 0 {
				c.RowIdx = append(c.RowIdx, int32(i))
				c.ColIdx = append(c.ColIdx, int32(j))
				c.Val = append(c.Val, v)
			}
		}
	}
	return c
}

// Dims returns the logical (rows, cols) of the stored weight matrix.
func (c *COO) Dims() (rows, cols int) { return c.Rows, c.Cols }

// NNZ returns the stored nonzero count.
func (c *COO) NNZ() int { return len(c.Val) }

// IndexWords returns the number of stored index words (2 per nonzero).
func (c *COO) IndexWords() int { return 2 * len(c.Val) }

// MulVec computes y (len Cols) = x (len Rows) @ W.
func (c *COO) MulVec(x []float64) []float64 {
	if len(x) != c.Rows {
		panic(fmt.Sprintf("sparse: COO MulVec len %d != rows %d", len(x), c.Rows))
	}
	y := make([]float64, c.Cols)
	for k, v := range c.Val {
		y[c.ColIdx[k]] += x[c.RowIdx[k]] * v
	}
	return y
}

// MulInto computes dst = X @ W for X batch x Rows into the pre-allocated
// batch x Cols destination, allocation-free.
func (c *COO) MulInto(dst, x *mat.Matrix) {
	checkMulShapes("COO", dst, x, c.Rows, c.Cols)
	dst.Zero()
	for b := 0; b < x.Rows; b++ {
		xr := x.Row(b)
		yr := dst.Row(b)
		for k, v := range c.Val {
			yr[c.ColIdx[k]] += xr[c.RowIdx[k]] * v
		}
	}
}

// MulMat computes Y = X @ W where X is batch x Rows.
func (c *COO) MulMat(x *mat.Matrix) *mat.Matrix {
	y := mat.New(x.Rows, c.Cols)
	c.MulInto(y, x)
	return y
}

// CSR is compressed sparse row storage: one column index per nonzero
// plus a rows+1 pointer array.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Val        []float64
}

// NewCSR packs the nonzeros of w row by row.
func NewCSR(w *mat.Matrix) *CSR {
	c := &CSR{Rows: w.Rows, Cols: w.Cols, RowPtr: make([]int32, w.Rows+1)}
	for i := 0; i < w.Rows; i++ {
		row := w.Row(i)
		for j, v := range row {
			if v != 0 {
				c.ColIdx = append(c.ColIdx, int32(j))
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[i+1] = int32(len(c.Val))
	}
	return c
}

// Dims returns the logical (rows, cols) of the stored weight matrix.
func (c *CSR) Dims() (rows, cols int) { return c.Rows, c.Cols }

// NNZ returns the stored nonzero count.
func (c *CSR) NNZ() int { return len(c.Val) }

// IndexWords returns stored index words (1 per nonzero + row pointers).
func (c *CSR) IndexWords() int { return len(c.ColIdx) + len(c.RowPtr) }

// MulInto computes dst = X @ W for X batch x Rows into the pre-allocated
// batch x Cols destination, allocation-free.
func (c *CSR) MulInto(dst, x *mat.Matrix) {
	checkMulShapes("CSR", dst, x, c.Rows, c.Cols)
	dst.Zero()
	for b := 0; b < x.Rows; b++ {
		xr := x.Row(b)
		yr := dst.Row(b)
		for i := 0; i < c.Rows; i++ {
			xv := xr[i]
			if xv == 0 {
				continue
			}
			for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
				yr[c.ColIdx[k]] += xv * c.Val[k]
			}
		}
	}
}

// MulMat computes Y = X @ W where X is batch x Rows.
func (c *CSR) MulMat(x *mat.Matrix) *mat.Matrix {
	y := mat.New(x.Rows, c.Cols)
	c.MulInto(y, x)
	return y
}

// BlockCSR is the BP execution format: the matrix is split into
// row-blocks; each block stores the indices of its surviving columns
// once, plus a dense (blockRows x survivors) value panel. This is what
// makes BP "compatible with parallel computation": inner loops are
// dense over the survivor panel.
type BlockCSR struct {
	Rows, Cols int
	BlockRows  int // rows per block (last block may be short)
	Blocks     []blockPanel
}

type blockPanel struct {
	r0, r1 int
	cols   []int32   // surviving column indices
	panel  []float64 // (r1-r0) x len(cols), row-major
}

// NewBlockCSR packs w into numBlocks row-blocks, keeping the columns
// that are nonzero anywhere within each block.
func NewBlockCSR(w *mat.Matrix, numBlocks int) *BlockCSR {
	if numBlocks < 1 {
		numBlocks = 1
	}
	if numBlocks > w.Rows {
		numBlocks = w.Rows
	}
	c := &BlockCSR{Rows: w.Rows, Cols: w.Cols, BlockRows: (w.Rows + numBlocks - 1) / numBlocks}
	for b := 0; b < numBlocks; b++ {
		r0 := b * w.Rows / numBlocks
		r1 := (b + 1) * w.Rows / numBlocks
		if r0 >= r1 {
			continue
		}
		var cols []int32
		for j := 0; j < w.Cols; j++ {
			alive := false
			for i := r0; i < r1; i++ {
				if w.At(i, j) != 0 {
					alive = true
					break
				}
			}
			if alive {
				cols = append(cols, int32(j))
			}
		}
		panel := make([]float64, (r1-r0)*len(cols))
		for i := r0; i < r1; i++ {
			for k, j := range cols {
				panel[(i-r0)*len(cols)+k] = w.At(i, int(j))
			}
		}
		c.Blocks = append(c.Blocks, blockPanel{r0: r0, r1: r1, cols: cols, panel: panel})
	}
	return c
}

// Dims returns the logical (rows, cols) of the stored weight matrix.
func (c *BlockCSR) Dims() (rows, cols int) { return c.Rows, c.Cols }

// NNZ returns the stored value count (the dense survivor panels).
func (c *BlockCSR) NNZ() int {
	n := 0
	for _, b := range c.Blocks {
		n += len(b.panel)
	}
	return n
}

// IndexWords returns stored index words (one per surviving column per
// block — the paper's storage argument for BP).
func (c *BlockCSR) IndexWords() int {
	n := 0
	for _, b := range c.Blocks {
		n += len(b.cols)
	}
	return n
}

// MulInto computes dst = X @ W for X batch x Rows into the pre-allocated
// batch x Cols destination, allocation-free.
func (c *BlockCSR) MulInto(dst, x *mat.Matrix) {
	checkMulShapes("BlockCSR", dst, x, c.Rows, c.Cols)
	dst.Zero()
	for bi := 0; bi < x.Rows; bi++ {
		xr := x.Row(bi)
		yr := dst.Row(bi)
		for _, blk := range c.Blocks {
			nc := len(blk.cols)
			for i := blk.r0; i < blk.r1; i++ {
				xv := xr[i]
				if xv == 0 {
					continue
				}
				panelRow := blk.panel[(i-blk.r0)*nc : (i-blk.r0+1)*nc]
				for k, v := range panelRow {
					yr[blk.cols[k]] += xv * v
				}
			}
		}
	}
}

// MulMat computes Y = X @ W where X is batch x Rows.
func (c *BlockCSR) MulMat(x *mat.Matrix) *mat.Matrix {
	y := mat.New(x.Rows, c.Cols)
	c.MulInto(y, x)
	return y
}

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

	// walk visits the in-range kept positions tile by tile, so every
	// column sees its rows in ascending order: once to size the column
	// streams, once to fill them.
	counts := make([]int32, w.Cols)
	var lw *mat.LaneWeights
	walk := func(fill bool) {
		t := 0
		for r0 := 0; r0 < w.Rows; r0 += psize {
			for c0 := 0; c0 < w.Cols; c0 += psize {
				for _, o := range dict[choices[t]] {
					r, c := r0+o[0], c0+o[1]
					if r >= w.Rows || c >= w.Cols {
						continue
					}
					if fill {
						lw.Put(c, int(counts[c]), r, w.Data[r*w.Cols+c])
					}
					counts[c]++
				}
				t++
			}
		}
	}
	walk(false)
	lw, err := mat.NewLaneWeights(w.Rows, w.Cols, counts)
	if err != nil {
		return nil, fmt.Errorf("sparse: %w", err)
	}
	clear(counts)
	walk(true)
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
// concurrent calls on disjoint destinations (see mat.GemmLanes).
func (p *Pattern) MulInto(dst, x *mat.Matrix) {
	checkMulShapes("Pattern", dst, x, p.Rows, p.Cols)
	mat.GemmLanes(dst, x, p.w)
}

// MulMat computes Y = X @ W where X is batch x Rows.
func (p *Pattern) MulMat(x *mat.Matrix) *mat.Matrix {
	y := mat.New(x.Rows, p.Cols)
	p.MulInto(y, x)
	return y
}

// Multiplier is the legacy allocating interface of all packed formats;
// new code should program against kernel.Kernel (destination-passing
// MulInto) instead.
type Multiplier interface {
	MulMat(x *mat.Matrix) *mat.Matrix
	NNZ() int
	IndexWords() int
}

// compile-time interface checks
var (
	_ Multiplier = (*COO)(nil)
	_ Multiplier = (*CSR)(nil)
	_ Multiplier = (*BlockCSR)(nil)
	_ Multiplier = (*Pattern)(nil)
)
