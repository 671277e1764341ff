package mat_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rt3/internal/mat"
	"rt3/internal/pattern"
	"rt3/internal/testutil"
)

// sparseWeights returns a K x N matrix with each entry zeroed with
// probability sparsity, and its column streams.
func sparseWeights(tb testing.TB, rng *rand.Rand, K, N int, sparsity float64) (*mat.Matrix, *mat.LaneWeights) {
	tb.Helper()
	w := mat.New(K, N)
	w.Randomize(rng, 1)
	for i := range w.Data {
		if rng.Float64() < sparsity {
			w.Data[i] = 0
		}
	}
	return w, mat.LaneWeightsOf(tb, w)
}

// laneRows are the batch sizes around every lane-block edge: 1-9 rows
// (one padded 4- or 8-lane tile, then a second block), both sides of 16
// and 32, a full gemmMC row block and one past it, and two row blocks
// plus a 2-row tail.
var laneRows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65, 130}

// TestGemmLanesBitIdenticalSweep: the lane kernel must equal the naive
// triple loop over the same (zero-holed) dense matrix bit for bit, at
// every lane-block edge, with K and N on both sides of the group width.
func TestGemmLanesBitIdenticalSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, M := range laneRows {
		for _, K := range []int{1, 5, 8, 12, 33} {
			for _, N := range []int{1, 3, 4, 6, 8, 13, 33} {
				for _, sparsity := range []float64{0, 0.3, 0.5, 0.7, 1} {
					w, lw := sparseWeights(t, rng, K, N, sparsity)
					x := mat.New(M, K)
					x.Randomize(rng, 1)
					want := mat.New(M, N)
					testutil.NaiveMatMul(want, x, w)
					got := mat.New(M, N)
					got.Fill(7) // every element must be overwritten
					mat.GemmLanes(got, x, lw)
					if !mat.Equal(got, want, 0) {
						t.Fatalf("%dx%dx%d sparsity %.1f: lane kernel differs from naive loop", M, K, N, sparsity)
					}
				}
			}
		}
	}
}

// TestGemmLanesZeroAllocs: the lane-major scratch comes from a free
// list, so steady-state calls allocate nothing, also when the batch size
// alternates between a padded decode tile (3 rows: one narrow block), a
// chunk of 12 (one wide block split by partition where the ZMM kernels
// run, two narrow blocks elsewhere) and a multi-block prefill of 130.
func TestGemmLanesZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	_, lw := sparseWeights(t, rng, 40, 24, 0.5)
	var xs, dsts []*mat.Matrix
	for _, M := range []int{130, 3, 12} {
		x := mat.New(M, 40)
		x.Randomize(rng, 1)
		xs, dsts = append(xs, x), append(dsts, mat.New(M, 24))
	}
	mat.GemmLanes(dsts[0], xs[0], lw) // grow the scratch to the largest batch
	if allocs := testing.AllocsPerRun(50, func() {
		for i, x := range xs {
			mat.GemmLanes(dsts[i], x, lw)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocs per round of GemmLanes calls, want 0", allocs)
	}

	// batches that fan out, by row block and (one block) by column
	// partition: the fork body, the caller's xt block and every span's are
	// borrowed, on the helpers too
	testutil.Procs(t, 4)
	_, big := sparseWeights(t, rng, 192, 192, 0.3)
	for _, M := range []int{520, 12, 8, 3} {
		x := mat.New(M, 192)
		x.Randomize(rng, 1)
		dst := mat.New(M, 192)
		before := mat.ForkStats().Regions
		allocs := testutil.AllocsPerRun(50, func() { mat.GemmLanes(dst, x, big) })
		if after := mat.ForkStats().Regions; after-before < 50 {
			t.Fatalf("%d of 51 GemmLanes calls over %d rows fanned out", after-before, M)
		}
		if allocs != 0 {
			t.Fatalf("%v allocs per fanned-out GemmLanes over %d rows, want 0", allocs, M)
		}
	}
}

// TestGemmLanesSharedConcurrent: serving replicas share one read-only
// LaneWeights; 8 goroutines running it at different batch sizes must
// each borrow private scratch. Run under -race in CI.
func TestGemmLanesSharedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	w, lw := sparseWeights(t, rng, 33, 18, 0.5)
	const goroutines = 8
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		x := mat.New(1+9*g, 33)
		x.Randomize(rng, 1)
		want := mat.New(x.Rows, 18)
		testutil.NaiveMatMul(want, x, w)
		go func() {
			got := mat.New(x.Rows, 18)
			for i := 0; i < 50; i++ {
				mat.GemmLanes(got, x, lw)
				if !mat.Equal(got, want, 0) {
					errc <- fmt.Errorf("batch %d iteration %d: output corrupted", x.Rows, i)
					return
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLanePartitionLayout pins the two properties the column split of a
// single-block product rests on. A partition is an aligned run of whole
// cache lines of a dst row: the groups of partition p hold exactly
// columns [32p, 32p+32) (cut at N), so two spans never write one line.
// And sorting columns by stream length inside partitions instead of
// over all N keeps the padding small: on the serving shapes under 8x8
// pattern sets the stored stream entries stay within 5% of the globally
// sorted layout's (measured 0.9-1.6% at sparsity 0.3, 1.2-2.9% at 0.5,
// 2.7-4.4% at 0.7; 16-column partitions would store 3-16% more).
func TestLanePartitionLayout(t *testing.T) {
	if mat.LanePartition%8 != 0 || mat.LanePartition%mat.LaneGroup != 0 {
		t.Fatalf("LanePartition %d is not whole cache lines of whole groups", mat.LanePartition)
	}
	rng := rand.New(rand.NewSource(105))
	for _, N := range []int{1, 7, 32, 33, 100, 192} {
		_, lw := sparseWeights(t, rng, 40, N, 0.5)
		cols := lw.Cols()
		for p0 := 0; p0 < N; p0 += mat.LanePartition {
			part := slices.Clone(cols[p0:min(p0+mat.LanePartition, N)])
			slices.Sort(part)
			for i, c := range part {
				if int(c) != p0+i {
					t.Fatalf("N=%d: partition at %d holds columns %v", N, p0, part)
				}
			}
		}
	}

	for _, shape := range [][2]int{{192, 768}, {768, 192}, {192, 192}} {
		for _, sparsity := range []float64{0.3, 0.5, 0.7} {
			w := mat.New(shape[0], shape[1])
			w.Randomize(rng, 1)
			masked, _ := pattern.GenerateSet(w, 8, sparsity, 4, rng).Apply(w)
			counts := make([]int, masked.Cols)
			for i, v := range masked.Data {
				if v != 0 {
					counts[i%masked.Cols]++
				}
			}
			slices.SortFunc(counts, func(a, b int) int { return cmp.Compare(b, a) })
			global := 0
			for g := 0; g < len(counts); g += mat.LaneGroup {
				global += counts[g] * mat.LaneGroup
			}
			stored := mat.LaneWeightsOf(t, masked).Steps() * mat.LaneGroup
			t.Logf("%dx%d s%.1f: %d entries stored, %d globally sorted (+%.2f%%), %d kept",
				shape[0], shape[1], sparsity, stored, global, 100*float64(stored-global)/float64(global), masked.NNZ())
			if float64(stored) > 1.05*float64(global) {
				t.Errorf("%dx%d s%.1f: partitions store %d entries, over 5%% more than the %d of a global sort",
					shape[0], shape[1], sparsity, stored, global)
			}
		}
	}
}

// TestNewLaneWeightsRejects: K beyond the uint16 index range and a
// count list of the wrong length are errors, not panics.
func TestNewLaneWeightsRejects(t *testing.T) {
	if _, err := mat.NewLaneWeights(mat.LaneMaxK+1, 1, []int32{0}); err == nil {
		t.Fatal("K beyond LaneMaxK accepted")
	}
	if _, err := mat.NewLaneWeights(4, 3, []int32{1, 1}); err == nil {
		t.Fatal("short count list accepted")
	}
}

// BenchmarkGemmLanes is a rough guide only (this host is noisy; the
// enforced comparison is rt3bench -exp kernels): the lane kernel down
// the sparsity ladder at a full, a ragged and a half-empty decode step
// and at a prefill block, beside the dense panels over the same shape.
//
// The step/ rows are what the fork constants were set from
// (docs/ARCHITECTURE.md, "Parallel execution"): 8- and 3-row products at
// the three serving shapes, inline (GOMAXPROCS 1) against split by column
// partition (GOMAXPROCS 2), cycling 12 weight sets so the streams come
// from L2 or memory as they do inside a decode step, not from L1. The
// host lends the second core only after about 1.5 s of two-thread
// demand, so the GOMAXPROCS 2 rows first keep both busy for 2 s, and
// the median call (p50-ns) is the number to read: the mean carries the
// host's slow spells.
func BenchmarkGemmLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(103))
	for _, M := range []int{8, 7, 4, 256} {
		const K, N = 192, 768
		x := mat.New(M, K)
		x.Randomize(rng, 1)
		dst := mat.New(M, N)
		gflops := func(b *testing.B) {
			b.ReportMetric(2*float64(M*K*N)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop-eq/s")
		}
		w, _ := sparseWeights(b, rng, K, N, 0)
		p := mat.PackPanels(w)
		b.Run(fmt.Sprintf("panels/%dx%dx%d", M, K, N), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.GemmPanels(dst, x.Data, p)
			}
			gflops(b)
		})
		for _, sparsity := range []float64{0.3, 0.5, 0.7} {
			_, lw := sparseWeights(b, rng, K, N, sparsity)
			b.Run(fmt.Sprintf("lanes/%dx%dx%d/s%.1f", M, K, N, sparsity), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mat.GemmLanes(dst, x, lw)
				}
				gflops(b)
			})
		}
	}

	const sets = 12
	for _, shape := range [][2]int{{192, 768}, {768, 192}, {192, 192}} {
		K, N := shape[0], shape[1]
		lws := make([]*mat.LaneWeights, sets)
		for i := range lws {
			_, lws[i] = sparseWeights(b, rng, K, N, 0.3)
		}
		for _, M := range []int{8, 3} {
			x := mat.New(M, K)
			x.Randomize(rng, 1)
			dst := mat.New(M, N)
			for _, procs := range []int{1, 2} {
				b.Run(fmt.Sprintf("step/%dx%dx%d/procs%d", M, K, N, procs), func(b *testing.B) {
					testutil.Procs(b, procs)
					if procs > 1 && b.N > 1 {
						for warm := time.Now(); time.Since(warm) < 2*time.Second; {
							mat.GemmLanes(dst, x, lws[0])
						}
					}
					calls := make([]time.Duration, b.N)
					b.ResetTimer()
					for i := range calls {
						start := time.Now()
						mat.GemmLanes(dst, x, lws[i%sets])
						calls[i] = time.Since(start)
					}
					slices.Sort(calls)
					b.ReportMetric(float64(calls[b.N/2].Nanoseconds()), "p50-ns")
				})
			}
		}
	}
}
