package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rt3/internal/mat"
	"rt3/internal/pattern"
)

// TestPackAllMatchesKeepEveryWeight holds packAll, the all-kept build of
// the unpruned linears, to NewPattern with one 1x1 pattern chosen by
// every tile: the same streams, storage counts and pattern size, over
// ragged shapes with NaN and infinite weights.
func TestPackAllMatchesKeepEveryWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, dims := range [][2]int{{192, 512}, {1, 1}, {3, 1}, {1, 9}, {13, 18}, {70, 37}, {33, 131}} {
		w := mat.New(dims[0], dims[1])
		w.Randomize(rng, 1)
		w.Data[rng.Intn(len(w.Data))] = math.NaN()
		w.Data[rng.Intn(len(w.Data))] = math.Inf(-1)
		all, err := packAll(w)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := NewPattern(w, 1, [][]uint8{{1}}, make([]int, dims[0]*dims[1]))
		if err != nil {
			t.Fatal(err)
		}
		if !all.w.Equal(kept.w) || all.nnz != kept.nnz || all.indexWords != kept.indexWords || all.PSize != kept.PSize {
			t.Fatalf("%dx%d: packAll differs from NewPattern with every weight kept", dims[0], dims[1])
		}
	}
}

// BenchmarkPackSet times one kernel build per call at the serving shapes
// (8x8 sets of 4 patterns, the all-kept build of the output projection),
// reporting the median single call as p50-ns beside the mean ns/op.
func BenchmarkPackSet(b *testing.B) {
	rng := rand.New(rand.NewSource(59))
	for _, c := range []struct {
		rows, cols int
		sparsity   float64 // 0: no set, every weight kept
	}{{192, 768, 0.3}, {192, 768, 0.7}, {768, 192, 0.3}, {192, 192, 0.5}, {192, 512, 0}} {
		w := mat.New(c.rows, c.cols)
		w.Randomize(rng, 1)
		var set *pattern.Set
		name := fmt.Sprintf("%dx%d/all-kept", c.rows, c.cols)
		if c.sparsity > 0 {
			set = pattern.GenerateSet(w, 8, c.sparsity, 4, rng)
			name = fmt.Sprintf("%dx%d/s%.1f", c.rows, c.cols, c.sparsity)
		}
		b.Run(name, func(b *testing.B) {
			ns := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := PackSet(w, set); err != nil {
					b.Fatal(err)
				}
				ns = append(ns, float64(time.Since(t0).Nanoseconds()))
			}
			slices.Sort(ns)
			b.ReportMetric(ns[len(ns)/2], "p50-ns")
		})
	}
}
