// Package pattern implements pattern pruning (PP) for RT3: psize x psize
// binary patterns, the heuristic search-space generation of component ③
// (importance maps built by point-wise adding half the backbone's blocks),
// pattern sets with diverse sparsity, and the per-block application rule
// (each block keeps the pattern retaining the largest l2 norm, following
// CSB-RNN / Fig. 2 of the paper).
package pattern

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"rt3/internal/mat"
)

// Pattern is a square binary mask; Bits[i*Size+j] == 1 keeps position
// (i, j) of a block.
type Pattern struct {
	Size int
	Bits []uint8
}

// NewPattern returns an all-zero pattern of the given size.
func NewPattern(size int) Pattern {
	return Pattern{Size: size, Bits: make([]uint8, size*size)}
}

// Ones returns the number of kept (1) positions.
func (p Pattern) Ones() int {
	n := 0
	for _, b := range p.Bits {
		if b != 0 {
			n++
		}
	}
	return n
}

// Kept lists the kept (i, j) positions in row-major order, so the kept
// rows of any one column come up ascending. No production path calls
// it: it is a test oracle, exported for sparse's build tests.
func (p Pattern) Kept() [][2]int {
	var out [][2]int
	for i := 0; i < p.Size; i++ {
		for j := 0; j < p.Size; j++ {
			if p.Bits[i*p.Size+j] != 0 {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// Sparsity returns the fraction of pruned (0) positions.
func (p Pattern) Sparsity() float64 {
	if len(p.Bits) == 0 {
		return 0
	}
	return 1 - float64(p.Ones())/float64(len(p.Bits))
}

// Equal reports whether two patterns are identical. No production path
// calls it: it is a test oracle, exported for deploy's round-trip tests.
func (p Pattern) Equal(q Pattern) bool {
	if p.Size != q.Size {
		return false
	}
	for i, b := range p.Bits {
		if b != q.Bits[i] {
			return false
		}
	}
	return true
}

// String renders the pattern as rows of #/. (kept/pruned), matching the
// purple-pixel visualization of the paper's Fig. 4.
func (p Pattern) String() string {
	var b strings.Builder
	for i := 0; i < p.Size; i++ {
		for j := 0; j < p.Size; j++ {
			if p.Bits[i*p.Size+j] != 0 {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Set is a pattern set: m candidate patterns sharing one sparsity level.
// At run time one Set is active per DVFS voltage/frequency level.
type Set struct {
	Sparsity float64
	Patterns []Pattern
}

// PSize returns the pattern size of the set (0 if empty).
func (s *Set) PSize() int {
	if len(s.Patterns) == 0 {
		return 0
	}
	return s.Patterns[0].Size
}

// MaskBytes returns the run-time footprint of the set when swapped
// in/out of off-chip memory: one bit per pattern position.
func (s *Set) MaskBytes() int {
	bits := 0
	for _, p := range s.Patterns {
		bits += len(p.Bits)
	}
	return (bits + 7) / 8
}

// ImportanceMap accumulates |w| point-wise over a random sample of half
// of the psize x psize blocks of w (component ③ of the paper: "we sample
// n/2 blocks and conduct point-wise addition"). The result scores how
// important each in-block position is across the backbone.
func ImportanceMap(w *mat.Matrix, psize int, rng *rand.Rand) *mat.Matrix {
	blocks := enumerateBlocks(w, psize)
	if len(blocks) == 0 {
		return mat.New(psize, psize)
	}
	sample := len(blocks) / 2
	if sample < 1 {
		sample = 1
	}
	imp := mat.New(psize, psize)
	for _, bi := range rng.Perm(len(blocks))[:sample] {
		b := blocks[bi]
		for i := 0; i < psize; i++ {
			for j := 0; j < psize; j++ {
				r, c := b[0]+i, b[1]+j
				if r < w.Rows && c < w.Cols {
					imp.Set(i, j, imp.At(i, j)+math.Abs(w.At(r, c)))
				}
			}
		}
	}
	return imp
}

// enumerateBlocks lists the top-left corners of the psize x psize tiling
// of w (edge tiles may be partial).
func enumerateBlocks(w *mat.Matrix, psize int) [][2]int {
	var out [][2]int
	for r := 0; r < w.Rows; r += psize {
		for c := 0; c < w.Cols; c += psize {
			out = append(out, [2]int{r, c})
		}
	}
	return out
}

// FromImportance builds one pattern of the requested sparsity by keeping
// the highest-importance positions ("according to the sparsity ratio, we
// set 0 in the pattern for all less important weights").
func FromImportance(imp *mat.Matrix, sparsity float64) Pattern {
	if imp.Rows != imp.Cols {
		panic(fmt.Sprintf("pattern: importance map must be square, got %dx%d", imp.Rows, imp.Cols))
	}
	size := imp.Rows
	n := size * size
	keep := n - int(math.Round(sparsity*float64(n)))
	if keep < 1 {
		keep = 1
	}
	if keep > n {
		keep = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return imp.Data[idx[a]] > imp.Data[idx[b]] })
	p := NewPattern(size)
	for _, i := range idx[:keep] {
		p.Bits[i] = 1
	}
	return p
}

// GenerateSet builds a pattern set of m patterns at the given sparsity
// from backbone matrix w: the construction procedure (sample blocks,
// point-wise add, threshold by sparsity) repeats m times with fresh block
// samples, yielding m related but distinct candidates.
func GenerateSet(w *mat.Matrix, psize int, sparsity float64, m int, rng *rand.Rand) *Set {
	s := &Set{Sparsity: sparsity}
	for k := 0; k < m; k++ {
		imp := ImportanceMap(w, psize, rng)
		p := FromImportance(imp, sparsity)
		s.Patterns = append(s.Patterns, p)
	}
	return s
}

// RandomSet is the rPP baseline: m patterns whose kept positions are
// chosen uniformly at random at the given sparsity.
func RandomSet(psize int, sparsity float64, m int, rng *rand.Rand) *Set {
	n := psize * psize
	keep := n - int(math.Round(sparsity*float64(n)))
	if keep < 1 {
		keep = 1
	}
	s := &Set{Sparsity: sparsity}
	for k := 0; k < m; k++ {
		p := NewPattern(psize)
		for _, i := range rng.Perm(n)[:keep] {
			p.Bits[i] = 1
		}
		s.Patterns = append(s.Patterns, p)
	}
	return s
}

// Choose tiles w with psize blocks and, per block, selects the pattern
// of the set that retains the largest l2 norm of the block's weights
// (the paper's training rule: "choose the pattern with the largest
// l2-norm for each block"). It returns the chosen pattern index per
// block, in row-major block order. A norm sums the squares of the kept
// weights in row-major order within the block, and ties go to the
// lower index. mat.ChooseTiles scores the blocks that end inside w,
// eight side by side.
func (s *Set) Choose(w *mat.Matrix) []int {
	psize := s.PSize()
	if psize == 0 {
		panic("pattern: Choose on empty set")
	}
	var kept []int32
	ends := make([]int32, len(s.Patterns))
	for pi, p := range s.Patterns {
		for o, b := range p.Bits {
			if b != 0 {
				kept = append(kept, int32(o))
			}
		}
		ends[pi] = int32(len(kept))
	}
	tileCols := (w.Cols + psize - 1) / psize
	choices := make([]int, ((w.Rows+psize-1)/psize)*tileCols)
	mat.ChooseTiles(choices, w, psize, kept, ends)
	full := w.Cols / psize // tiles of a band that end inside w
	for r, t := 0, 0; r < w.Rows; r, t = r+psize, t+tileCols {
		tc := full
		if r+psize > w.Rows {
			tc = 0
		}
		for ; tc < tileCols; tc++ {
			choices[t+tc] = s.chooseEdge(w, r, tc*psize)
		}
	}
	return choices
}

// chooseEdge is Choose for a tile at (r, c) that runs past the bottom
// or right edge of w: positions outside w count for nothing.
func (s *Set) chooseEdge(w *mat.Matrix, r, c int) int {
	psize := s.PSize()
	best, bestNorm := 0, -1.0
	for pi, p := range s.Patterns {
		var norm float64
		for i := 0; i < psize && r+i < w.Rows; i++ {
			for j := 0; j < psize && c+j < w.Cols; j++ {
				if p.Bits[i*psize+j] != 0 {
					v := w.Data[(r+i)*w.Cols+c+j]
					norm += float64(v * v)
				}
			}
		}
		if norm > bestNorm {
			bestNorm = norm
			best = pi
		}
	}
	return best
}

// Apply builds a full-size 0/1 mask for w from the per-block choices of
// Choose. It returns the mask and the choices, for storage accounting.
func (s *Set) Apply(w *mat.Matrix) (*mat.Matrix, []int) {
	choices := s.Choose(w)
	psize := s.PSize()
	mask := mat.New(w.Rows, w.Cols)
	t := 0
	for r := 0; r < w.Rows; r += psize {
		for c := 0; c < w.Cols; c += psize {
			p := s.Patterns[choices[t]]
			t++
			for i := 0; i < psize; i++ {
				for j := 0; j < psize; j++ {
					rr, cc := r+i, c+j
					if rr < w.Rows && cc < w.Cols && p.Bits[i*psize+j] != 0 {
						mask.Set(rr, cc, 1)
					}
				}
			}
		}
	}
	return mask, choices
}

// CombineWithBackbone intersects a pattern mask with the Level-1 BP mask
// so PP only ever prunes further (the backbone stays fixed).
func CombineWithBackbone(patternMask, bpMask *mat.Matrix) *mat.Matrix {
	out := patternMask.Clone()
	out.Hadamard(bpMask)
	return out
}
