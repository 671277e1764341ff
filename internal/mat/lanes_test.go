package mat_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rt3/internal/mat"
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
// alternates between a padded decode tile and a multi-block prefill.
func TestGemmLanesZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	_, lw := sparseWeights(t, rng, 40, 24, 0.5)
	x7 := mat.New(7, 40)
	x7.Randomize(rng, 1)
	x70 := mat.New(70, 40)
	x70.Randomize(rng, 1)
	dst7, dst70 := mat.New(7, 24), mat.New(70, 24)
	mat.GemmLanes(dst70, x70, lw) // grow the scratch to the largest batch
	if allocs := testing.AllocsPerRun(50, func() {
		mat.GemmLanes(dst7, x7, lw)
		mat.GemmLanes(dst70, x70, lw)
	}); allocs != 0 {
		t.Fatalf("%v allocs per GemmLanes pair, want 0", allocs)
	}

	// a batch that fans out: the fork body and every span's xt block are
	// borrowed, on the helpers too
	testutil.Procs(t, 4)
	_, big := sparseWeights(t, rng, 192, 192, 0.3)
	x520 := mat.New(520, 192)
	x520.Randomize(rng, 1)
	dst520 := mat.New(520, 192)
	before, _ := mat.ForkStats()
	allocs := testutil.AllocsPerRun(50, func() { mat.GemmLanes(dst520, x520, big) })
	if after, _ := mat.ForkStats(); after-before < 50 {
		t.Fatalf("%d of 51 GemmLanes calls over 520 rows fanned out", after-before)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per fanned-out GemmLanes, want 0", allocs)
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
		p := mat.PackPanels[float64](w)
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
}
