package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/pattern"
)

// chooseRef is the plain form of pattern.Set.Choose: per tile and per
// pattern, the squares of the kept in-range weights summed in row-major
// order, the first largest norm winning.
func chooseRef(s *pattern.Set, w *mat.Matrix) []int {
	psize := s.PSize()
	kept := make([][][2]int, len(s.Patterns))
	for pi, p := range s.Patterns {
		kept[pi] = p.Kept()
	}
	var choices []int
	for r := 0; r < w.Rows; r += psize {
		for c := 0; c < w.Cols; c += psize {
			interior := r+psize <= w.Rows && c+psize <= w.Cols
			best, bestNorm := 0, -1.0
			for pi, offs := range kept {
				var norm float64
				for _, o := range offs {
					rr, cc := r+o[0], c+o[1]
					if interior || (rr < w.Rows && cc < w.Cols) {
						v := w.Data[rr*w.Cols+cc]
						norm += float64(v * v)
					}
				}
				if norm > bestNorm {
					bestNorm = norm
					best = pi
				}
			}
			choices = append(choices, best)
		}
	}
	return choices
}

// lanesRef is the plain form of NewPattern's streams: one walk over the
// kept in-range positions to count each column, one to fill it, every
// weight's stream position looked up from its column and its index in
// the column.
func lanesRef(t *testing.T, w *mat.Matrix, psize int, bits [][]uint8, choices []int) *mat.LaneWeights {
	dict := make([][][2]int, len(bits))
	for id, bm := range bits {
		dict[id] = pattern.Pattern{Size: psize, Bits: bm}.Kept()
	}
	counts := make([]int32, w.Cols)
	var lw *mat.LaneWeights
	var first []int
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
						lw.Store(first[c]+int(counts[c])*mat.LaneGroup, r, w.Data[r*w.Cols+c])
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
		t.Fatal(err)
	}
	first = lw.Cursors()
	clear(counts)
	walk(true)
	return lw
}

// TestBuildMatchesReference holds Choose and NewPattern to their plain
// forms: the same choices, and streams identical entry for entry, over
// the serving shapes, ragged shapes (rows and columns off the pattern
// size, fewer columns than a lane group, a partial last partition, 1x1),
// one to nine patterns, all-zero tiles (ties keep pattern 0), and NaN
// and infinite weights.
func TestBuildMatchesReference(t *testing.T) {
	type tc struct {
		rows, cols, psize, patterns int
		sparsity                    float64
		weights                     string // "normal", "zero-tiles" or "nonfinite"
	}
	var cases []tc
	for _, dims := range [][2]int{{192, 768}, {768, 192}, {192, 512}} {
		for _, sp := range []float64{0.3, 0.5, 0.7} {
			cases = append(cases, tc{dims[0], dims[1], 8, 4, sp, "normal"})
		}
	}
	for _, dims := range [][2]int{{13, 18}, {33, 13}, {9, 3}, {5, 2}, {40, 45}, {70, 37}, {1, 1}, {3, 1}, {1, 9}} {
		for _, psize := range []int{1, 3, 4, 8} {
			cases = append(cases, tc{dims[0], dims[1], psize, 3, 0.5, "normal"})
		}
	}
	for m := 1; m <= 9; m++ {
		cases = append(cases, tc{48, 72, 8, m, 0.5, "normal"}, tc{21, 27, 4, m, 0.7, "normal"})
	}
	for _, dims := range [][2]int{{64, 96}, {27, 35}} {
		for _, kind := range []string{"zero-tiles", "nonfinite"} {
			cases = append(cases, tc{dims[0], dims[1], 8, 5, 0.5, kind}, tc{dims[0], dims[1], 4, 9, 0.3, kind})
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, c := range cases {
		name := fmt.Sprintf("%dx%d/p%d/m%d/s%.1f/%s", c.rows, c.cols, c.psize, c.patterns, c.sparsity, c.weights)
		w := mat.New(c.rows, c.cols)
		w.Randomize(rng, 1)
		switch c.weights {
		case "zero-tiles":
			// every other tile row and tile column is all zero
			for r := 0; r < c.rows; r++ {
				for col := 0; col < c.cols; col++ {
					if (r/c.psize)%2 == 0 || (col/c.psize)%2 == 0 {
						w.Set(r, col, 0)
					}
				}
			}
		case "nonfinite":
			for i := range w.Data {
				switch rng.Intn(16) {
				case 0:
					w.Data[i] = math.NaN()
				case 1:
					w.Data[i] = math.Inf(1)
				case 2:
					w.Data[i] = math.Inf(-1)
				}
			}
		}
		set := pattern.RandomSet(c.psize, c.sparsity, c.patterns, rng)
		got, want := set.Choose(w), chooseRef(set, w)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Choose differs from the reference", name)
		}
		if c.weights == "zero-tiles" {
			for i, id := range got {
				tr, tcol := i/((c.cols+c.psize-1)/c.psize), i%((c.cols+c.psize-1)/c.psize)
				if (tr%2 == 0 || tcol%2 == 0) && id != 0 {
					t.Fatalf("%s: all-zero tile %d chose pattern %d, want 0", name, i, id)
				}
			}
		}
		bits := make([][]uint8, len(set.Patterns))
		for i, p := range set.Patterns {
			bits[i] = p.Bits
		}
		p, err := NewPattern(w, c.psize, bits, got)
		if err != nil {
			t.Fatal(err)
		}
		if !p.w.Equal(lanesRef(t, w, c.psize, bits, got)) {
			t.Fatalf("%s: NewPattern's streams differ from the reference", name)
		}
	}
}
