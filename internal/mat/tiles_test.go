package mat_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rt3/internal/mat"
)

// chooseNaive is ChooseTiles' definition, one tile and one pattern at a
// time: the squares of the kept weights summed in row-major order, the
// first strictly largest norm winning. Tiles that run past an edge keep
// their entry.
func chooseNaive(choices []int, w *mat.Matrix, psize int, kept, ends []int32) {
	tileCols := (w.Cols + psize - 1) / psize
	for r := 0; r+psize <= w.Rows; r += psize {
		for c := 0; c+psize <= w.Cols; c += psize {
			best, bestNorm, start := 0, -1.0, int32(0)
			for p, end := range ends {
				var norm float64
				for _, o := range kept[start:end] {
					v := w.At(r+int(o)/psize, c+int(o)%psize)
					norm += float64(v * v)
				}
				start = end
				if norm > bestNorm {
					best, bestNorm = p, norm
				}
			}
			choices[r/psize*tileCols+c/psize] = best
		}
	}
}

// TestChooseTwins holds each twin of ChooseTiles to chooseNaive at
// tolerance 0 over ragged shapes (rows and columns 1-70, pattern sizes
// 1-9, 1-6 patterns, runs of one to eight tiles), with exact ties,
// all-zero weights, NaN and infinite weights, and patterns that keep
// nothing or everything. Edge tiles must keep their entries.
func TestChooseTwins(t *testing.T) {
	const untouched = -7
	for _, name := range []string{"go", "avx512"} {
		t.Run(name, func(t *testing.T) {
			choose, ok := mat.ChooseTilesTwin(name)
			if !ok {
				t.Skipf("this host (or build) cannot run the %s twin", name)
			}
			rng := rand.New(rand.NewSource(59))
			cases := 0
			for psize := 1; psize <= 9; psize++ {
				for _, rows := range []int{1, 2, 7, 9, 16, 23, 41, 64, 70} {
					for _, cols := range []int{1, 3, 8, 15, 17, 33, 64, 65, 70} {
						for _, weights := range []string{"normal", "ties", "zeros", "nonfinite"} {
							npat := 1 + (rows+cols+psize)%6
							w := chooseWeights(rng, rows, cols, weights)
							kept, ends := chooseKept(rng, psize, npat)
							what := fmt.Sprintf("%s: %dx%d, psize %d, %d patterns, %s weights", name, rows, cols, psize, npat, weights)
							tiles := ((rows + psize - 1) / psize) * ((cols + psize - 1) / psize)
							got, want := make([]int, tiles), make([]int, tiles)
							for i := range got {
								got[i], want[i] = untouched, untouched
							}
							choose(got, w, psize, kept, ends)
							chooseNaive(want, w, psize, kept, ends)
							if !slices.Equal(got, want) {
								t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
							}
							cases++
						}
					}
				}
			}
			t.Logf("%d cases", cases)
		})
	}
}

// chooseWeights draws a rows x cols matrix: uniform, ±1 everywhere
// (every pattern with as many kept positions ties), all zero, or uniform
// with one weight in eight NaN, +Inf or -Inf.
func chooseWeights(rng *rand.Rand, rows, cols int, kind string) *mat.Matrix {
	w := mat.New(rows, cols)
	for i := range w.Data {
		switch kind {
		case "normal":
			w.Data[i] = rng.Float64()*2 - 1
		case "ties":
			w.Data[i] = float64(1 - 2*rng.Intn(2))
		case "nonfinite":
			w.Data[i] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5, -0.25, 1, 2, -3}[rng.Intn(8)]
		}
	}
	return w
}

// chooseKept draws npat patterns over psize x psize positions: the
// first keeps one position, the others a random share; one in five keeps
// nothing, and a duplicate of the first ties with it exactly.
func chooseKept(rng *rand.Rand, psize, npat int) (kept, ends []int32) {
	var first []int32
	for p := 0; p < npat; p++ {
		var pos []int32
		switch {
		case p == 0:
			pos = []int32{int32(rng.Intn(psize * psize))}
			first = pos
		case p == 2:
			pos = first
		case rng.Intn(5) == 0:
		default:
			share := rng.Float64()
			for o := 0; o < psize*psize; o++ {
				if rng.Float64() < share {
					pos = append(pos, int32(o))
				}
			}
		}
		kept = append(kept, pos...)
		ends = append(ends, int32(len(kept)))
	}
	return kept, ends
}

// BenchmarkChooseTiles times ChooseTiles per twin over the serving
// shapes with 4 patterns of 8x8 at sparsity 0.5, reporting the median
// single call as p50-ns beside the mean ns/op.
func BenchmarkChooseTiles(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	kept, ends := []int32{}, []int32{}
	for p := 0; p < 4; p++ {
		for _, o := range rng.Perm(64)[:32] {
			kept = append(kept, int32(o))
		}
		slices.Sort(kept[len(kept)-32:])
		ends = append(ends, int32(len(kept)))
	}
	for _, name := range []string{"go", "avx512"} {
		choose, ok := mat.ChooseTilesTwin(name)
		for _, dims := range [][2]int{{192, 768}, {768, 192}, {192, 192}} {
			b.Run(fmt.Sprintf("%s/%dx%d", name, dims[0], dims[1]), func(b *testing.B) {
				if !ok {
					b.Skipf("this host (or build) cannot run the %s twin", name)
				}
				w := chooseWeights(rng, dims[0], dims[1], "normal")
				choices := make([]int, (dims[0]/8)*(dims[1]/8))
				ns := make([]float64, 0, b.N)
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					choose(choices, w, 8, kept, ends)
					ns = append(ns, float64(time.Since(t0).Nanoseconds()))
				}
				slices.Sort(ns)
				b.ReportMetric(ns[len(ns)/2], "p50-ns")
			})
		}
	}
}
