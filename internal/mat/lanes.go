package mat

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the sparse twin of the packed-panel GEMM in gemm.go: a
// lane-parallel micro-kernel whose work is proportional to the stored
// weights, not to K*N. sparse.Pattern executes through it, which makes
// it the serving default.
//
// # Stream layout
//
// The K x N weight matrix is stored column-wise: each output column
// keeps only its surviving weights, as an ascending-k stream of
// (k-index, value) pairs. LaneGroup columns form a group and their
// streams are interleaved step by step — step t of a group holds the
// t-th stored weight of each of its columns — so the kernel walks one
// sequential stream while feeding LaneGroup independent add chains (one
// column's accumulator depends only on that column's previous step).
// Shorter columns of a group are padded to the longest with (k = K,
// value 0) entries. Pattern pruning gives the columns of a tile
// systematically different lengths (10-39% padding with adjacent
// columns grouped, measured on 8x8 sets at dim 192 / ffn 768), so groups
// are formed from columns sorted by length instead: padding all but
// vanishes, and a group's results are scattered to its columns' places
// in dst.
//
// # Partitions
//
// The sort runs inside aligned partitions of LanePartition columns, not
// over all N: a partition's groups then write exactly the partition's
// columns, whole 64-byte lines of every dst row. A decode step is one
// lane block, so there is no second row block to hand to a second core;
// its product splits by partition instead (see gemmLanes), and two cores
// writing disjoint cache lines is what makes that split pay: with
// globally sorted groups, whose four columns land anywhere in the row,
// the same split measured 1.35x where partitions give 1.5-1.75x
// (8x192->768, both cores warm). Sorting 32 columns instead of all of
// them stores 1-4% more entries on the 8x8 pattern sets (16 columns:
// 3-16%; TestLanePartitionLayout).
//
// # Lanes
//
// Sparsity leaves nothing contiguous along k or across columns to
// vectorize over, so the vector dimension is the batch: x is transposed
// into lane-major scratch xt, xt[k*L+l] = x[l][k], L batch rows at a
// time: 8, or 16 for a block of 9-16 rows where the kernel has 512-bit
// registers, so that every index and value load feeds twice the rows.
// Per stored weight the kernel broadcasts the value, multiplies it
// into the lanes of xt row k and adds the products into the column's
// accumulator. Lanes past the last batch row repeat it and their results
// are never stored, so a 1-7 row decode batch costs one padded tile. Row
// K of xt is all zero: a padding entry contributes 0*0 = +0, and adding
// +0 never changes an accumulator that started at +0.
//
// # Bit identity
//
// Every dst element accumulates its column's products in ascending k,
// each a separately rounded multiply then add (VMULPD/VADDPD on amd64,
// no FMA) — the same sequence of rounded operations as the naive dense
// loop over the masked matrix, minus its exact-zero terms, which leave
// the sum unchanged. Results are therefore bit-identical to masked
// dense execution; kernel and lane count only reorder work across dst.

// LaneGroup is the number of output columns whose streams are
// interleaved into one group.
const LaneGroup = 4

// LanePartition is the number of adjacent output columns that are
// sorted and grouped together: four cache lines of a dst row, the unit a
// single-block product splits by.
const LanePartition = 32

// laneWidth is the number of batch rows a narrow xt block holds, one
// per vector lane; a wide block holds twice as many.
const laneWidth = 8

// laneKern is a choice of kernel twin — all compute the same bits: the
// assembly kernels or laneKernGo, over row blocks of width rows (8, or
// 16 for the ZMM kernels and their portable reference in tests).
type laneKern struct {
	asm   bool
	width int
}

// laneHost is the twin GemmLanes runs on this host, laneISA its name.
var laneHost, laneISA = func() (laneKern, string) {
	switch {
	case cpuHasAVX512F:
		return laneKern{true, 2 * laneWidth}, "avx512"
	case laneAsm:
		return laneKern{true, laneWidth}, "avx"
	}
	return laneKern{false, laneWidth}, "go"
}()

// LaneISA names the twin GemmLanes runs ("avx512", "avx" or "go"), for
// metrics and benchmark records.
func LaneISA() string { return laneISA }

// LaneMaxK is the largest supported K: k-indices are stored as uint16
// and the value K itself marks padding.
const LaneMaxK = 1<<16 - 1

// LaneWeights is the column-stream form of a sparse K x N weight matrix
// (see the file comment).
type LaneWeights struct {
	K, N int
	// cols lists each partition's columns longest stream first; group g
	// is cols[g*LaneGroup:][:LaneGroup], cut short at the end when N is
	// not a multiple of LaneGroup. slot is its inverse: cols[slot[c]] == c.
	cols, slot []int32
	// start[g] is the first step of column group g; it has start[g+1] -
	// start[g] steps.
	start []int32
	// idx and val hold LaneGroup entries per step, column-minor.
	idx []uint16
	val []float64
}

// NewLaneWeights allocates the streams of a K x N matrix whose column c
// stores counts[c] weights, to be filled by counts[c] calls of Put.
func NewLaneWeights(k, n int, counts []int32) (*LaneWeights, error) {
	if k > LaneMaxK {
		return nil, fmt.Errorf("mat: lane streams support K <= %d, got %d", LaneMaxK, k)
	}
	if len(counts) != n {
		return nil, fmt.Errorf("mat: %d column counts for %d columns", len(counts), n)
	}
	groups := (n + LaneGroup - 1) / LaneGroup
	w := &LaneWeights{
		K: k, N: n,
		cols: make([]int32, n), slot: make([]int32, n), start: make([]int32, groups+1),
	}
	for c := range w.cols {
		w.cols[c] = int32(c)
	}
	for p := 0; p < n; p += LanePartition {
		slices.SortStableFunc(w.cols[p:min(p+LanePartition, n)], func(a, b int32) int { return cmp.Compare(counts[b], counts[a]) })
	}
	for p, c := range w.cols {
		w.slot[c] = int32(p)
	}
	for g := 0; g < groups; g++ {
		w.start[g+1] = w.start[g] + counts[w.cols[g*LaneGroup]] // the group's longest stream
	}
	total := int(w.start[groups]) * LaneGroup
	w.idx = make([]uint16, total)
	w.val = make([]float64, total)
	// pad: the steps a column (or, past column N, the last group's unused
	// slot) does not fill
	for s := 0; s < groups*LaneGroup; s++ {
		g, filled := s/LaneGroup, int32(0)
		if s < n {
			filled = counts[w.cols[s]]
		}
		for t := w.start[g] + filled; t < w.start[g+1]; t++ {
			w.idx[int(t)*LaneGroup+s%LaneGroup] = uint16(k)
		}
	}
	return w, nil
}

// Put stores the i-th weight of column c: value v at row k. Within a
// column, k must ascend with i.
func (w *LaneWeights) Put(c, i, k int, v float64) {
	s := int(w.slot[c])
	p := (int(w.start[s/LaneGroup])+i)*LaneGroup + s%LaneGroup
	w.idx[p] = uint16(k)
	w.val[p] = v
}

var laneScratches FreeList[[]float64]

func newLaneScratch() []float64 { return nil }

// GemmLanes computes dst = X @ W from the column streams of W, where X
// is dst.Rows x K. dst must not alias x. Allocation-free in steady
// state: the lane-major copy of x lives in borrowed scratch. Batches of
// several row blocks split by block across the Fork helpers, a single
// block (a decode step) by column partition.
func GemmLanes(dst, x *Matrix, w *LaneWeights) {
	if x.Cols != w.K {
		panic(fmt.Sprintf("mat: GemmLanes x cols %d != K %d", x.Cols, w.K))
	}
	if dst.Rows != x.Rows || dst.Cols != w.N {
		panic(fmt.Sprintf("mat: GemmLanes dst %dx%d != %dx%d", dst.Rows, dst.Cols, x.Rows, w.N))
	}
	gemmLanes(dst, x, w, laneHost)
}

// laneJob is one gemmLanes call as a Fork body. With several row blocks
// a unit is one block of kern.width rows, packed into an xt block the
// span borrows; with one, xt is that block, packed by the caller, and a
// unit is one column partition.
type laneJob struct {
	dst, x *Matrix
	w      *LaneWeights
	kern   laneKern
	xt     []float64
}

var laneJobs FreeList[*laneJob]

// laneCount is the lanes a block of rows batch rows runs at: whole
// 8-lane tiles, so only a block of more than 8 rows runs wide.
func laneCount(rows int) int { return (rows + laneWidth - 1) / laneWidth * laneWidth }

// gemmLanes is GemmLanes with the kernel choice explicit, so tests can
// hold the twins against each other. A last tile of 1-7 rows costs a
// full one, so work counts whole tiles.
func gemmLanes(dst, x *Matrix, w *LaneWeights, kern laneKern) {
	padded := laneCount(x.Rows)
	work := padded * len(w.val)
	if blocks := (x.Rows + kern.width - 1) / kern.width; blocks != 1 {
		forkJob(&laneJobs, blocks, work, laneJob{dst, x, w, kern, nil})
		return
	}
	xt := GrowFloats(laneScratches.Get(newLaneScratch), (w.K+1)*padded)
	packLanes(xt, x.Data, w.K, padded)
	forkJob(&laneJobs, (w.N+LanePartition-1)/LanePartition, work, laneJob{dst, x, w, kern, xt})
	laneScratches.Put(xt)
}

// Range runs column partitions [lo, hi) of the one packed block, or row
// blocks [lo, hi) with one borrowed xt block.
//
// The nest is row-block outer, column-group inner, with one lane block as
// the row block: the kernel touches one xt row (64 or 128 bytes) per
// stored weight at a data-dependent k, so the xt block is what has to
// stay in L1, while the weight streams are read sequentially, 10 bytes a
// weight, and prefetch well from L2. GemmPanels' 64-row blocks measured
// slower here at every prefill shape (at K=192 their xt is 98 KB).
func (j *laneJob) Range(lo, hi int) {
	const partGroups = LanePartition / LaneGroup
	x, w, width := j.x, j.w, j.kern.width
	K, N := w.K, w.N
	if j.xt != nil {
		j.groups(j.xt, j.dst.Data, x.Rows, lo*partGroups, min(hi*partGroups, len(w.start)-1))
		return
	}
	xt := GrowFloats(laneScratches.Get(newLaneScratch), (K+1)*width)
	for m, m1 := lo*width, min(hi*width, x.Rows); m < m1; m += width {
		rows := min(width, m1-m)
		packLanes(xt, x.Data[m*K:(m+rows)*K], K, laneCount(rows))
		j.groups(xt, j.dst.Data[m*N:(m+rows)*N], rows, 0, len(w.start)-1)
	}
	laneScratches.Put(xt)
}

// groups runs column groups [g0, g1) against one xt block of
// laneCount(rows) lanes into the rows batch rows of out.
func (j *laneJob) groups(xt, out []float64, rows, g0, g1 int) {
	w, N, lanes := j.w, j.w.N, laneCount(rows)
	for g := g0; g < g1; g++ {
		s0, s1 := int(w.start[g]), int(w.start[g+1])
		idx, val := w.idx[s0*LaneGroup:s1*LaneGroup], w.val[s0*LaneGroup:s1*LaneGroup]
		cols := w.cols[g*LaneGroup : min((g+1)*LaneGroup, N)]
		switch {
		case !j.kern.asm || len(cols) != LaneGroup || s1 == s0:
			laneKernGo(idx, val, xt, out, N, cols, lanes)
		case j.kern.width == laneWidth:
			laneKern8AVX(&idx[0], &val[0], s1-s0, &xt[0], &out[0], N, &cols[0], rows)
		case lanes == laneWidth:
			laneKern8Z(&idx[0], &val[0], s1-s0, &xt[0], &out[0], N, &cols[0], rows)
		default:
			laneKern16Z(&idx[0], &val[0], s1-s0, &xt[0], &out[0], N, &cols[0], rows)
		}
	}
}

// packLanes transposes the len(x)/K rows of x (at most lanes) into the
// lane-major block xt, xt[k*lanes+l] = x[l][k], and zeroes the padding
// row K. Lanes past the last row repeat it: their results are never
// stored, and a repeated row costs no more than a zero one.
func packLanes(xt, x []float64, K, lanes int) {
	clear(xt[K*lanes : (K+1)*lanes])
	if K == 0 {
		return
	}
	last := len(x)/K - 1
	row := func(l int) []float64 { l = min(l, last); return x[l*K : (l+1)*K] }
	for l := 0; l < lanes; l += 4 {
		r0, r1, r2, r3 := row(l), row(l+1), row(l+2), row(l+3)
		for k, v := range r0 {
			o := xt[k*lanes+l:][:4:4]
			o[0], o[1], o[2], o[3] = v, r1[k], r2[k], r3[k]
		}
	}
}

// laneKernGo is the portable kernel, the loop nest the assembly kernels
// replicate: one column group against one xt block of lanes lanes, into
// the len(c)/ldc batch rows of c (row stride ldc) at columns cols.
func laneKernGo(idx []uint16, val []float64, xt []float64, c []float64, ldc int, cols []int32, lanes int) {
	var acc [LaneGroup][2 * laneWidth]float64
	val = val[:len(idx)]
	for i, k := range idx {
		v := val[i]
		xs := xt[int(k)*lanes:][:lanes]
		a := acc[i%LaneGroup][:len(xs)]
		for l, xv := range xs {
			a[l] += xv * v
		}
	}
	for r := 0; r < len(c)/ldc; r++ {
		for j, col := range cols {
			c[r*ldc+int(col)] = acc[j][r]
		}
	}
}
