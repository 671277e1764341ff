package mat_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/testutil"
)

// forkRows are batch sizes on both sides of every block edge a split can
// fall on (8-row lane blocks, 64-row panel blocks) and of the fork
// threshold of the 192x192 products below.
var forkRows = []int{7, 8, 9, 63, 64, 65, 255, 256, 257, 513}

// TestForkGemmMatchesInline is the bit-identity sweep of the kernels
// that split across the Fork helpers: GemmLanes and GemmPanels (f64 and
// f32) give the bits of their inline run (GOMAXPROCS 1) at every batch
// size and sparsity, and fan out exactly when M x stored weights reaches
// ForkMinWork.
func TestForkGemmMatchesInline(t *testing.T) {
	const K, N = 192, 192
	rng := rand.New(rand.NewSource(201))
	type run struct {
		what    string
		mul     func(dst, x *mat.Matrix)
		x, want *mat.Matrix
		forks   bool
	}
	var runs []run
	testutil.Procs(t, 1)
	for _, sparsity := range []float64{0, 0.3, 0.7} {
		w, lw := sparseWeights(t, rng, K, N, sparsity)
		p64, p32 := mat.PackPanels[float64](w), mat.PackPanels[float32](w)
		for _, k := range []struct {
			name   string
			mul    func(dst, x *mat.Matrix)
			stored int // per batch row, what the kernel's work estimate counts
		}{
			{"lanes", func(dst, x *mat.Matrix) { mat.GemmLanes(dst, x, lw) }, lw.Steps() * mat.LaneGroup},
			{"panels/f64", func(dst, x *mat.Matrix) { mat.GemmPanels(dst, x.Data, p64) }, K * N},
			{"panels/f32", func(dst, x *mat.Matrix) { mat.Gemm32(dst, x, p32) }, K * N},
		} {
			for _, M := range forkRows {
				x := mat.New(M, K)
				x.Randomize(rng, 1)
				want := mat.New(M, N)
				k.mul(want, x)
				runs = append(runs, run{
					fmt.Sprintf("%s s%.1f M=%d", k.name, sparsity, M), k.mul, x, want, M*k.stored >= mat.ForkMinWork,
				})
			}
		}
	}
	testutil.Procs(t, 4)
	forked := 0
	for _, r := range runs {
		got, intact := guardedRows(t, r.x.Rows, N)
		before, _ := mat.ForkStats()
		r.mul(got, r.x)
		after, _ := mat.ForkStats()
		intact(r.what)
		if !mat.Equal(got, r.want, 0) {
			t.Fatalf("%s: forked product differs from inline", r.what)
		}
		if after > before != r.forks {
			t.Errorf("%s: fanned out = %v, want %v", r.what, after > before, r.forks)
		}
		if r.forks {
			forked++
		}
	}
	if forked == 0 || forked == len(runs) {
		t.Fatalf("%d of %d shapes above the fork threshold: the sweep must straddle it", forked, len(runs))
	}
}

// guardedRows returns a rows x cols destination inside a larger buffer
// and a check that nothing outside it was written.
func guardedRows(t *testing.T, rows, cols int) (*mat.Matrix, func(what string)) {
	t.Helper()
	const pad, canary = 16, 12345.5
	buf := make([]float64, rows*cols+2*pad)
	for i := range buf {
		buf[i] = canary
	}
	return mat.FromSlice(rows, cols, buf[pad:pad+rows*cols]), func(what string) {
		t.Helper()
		for i := 0; i < pad; i++ {
			if buf[i] != canary || buf[len(buf)-1-i] != canary {
				t.Fatalf("%s: wrote outside the destination", what)
			}
		}
	}
}

// countBody is a Fork body that records how often each unit ran.
type countBody struct {
	ran     []atomic.Int32
	started chan struct{} // closed by hold's first Range
	hold    chan struct{} // when non-nil, every Range waits for it
	once    atomic.Bool
}

func (b *countBody) Range(lo, hi int) {
	if b.hold != nil {
		if b.once.CompareAndSwap(false, true) {
			close(b.started)
		}
		<-b.hold
	}
	for i := lo; i < hi; i++ {
		b.ran[i].Add(1)
	}
}

func (b *countBody) check(t *testing.T, what string) {
	t.Helper()
	for i := range b.ran {
		if n := b.ran[i].Load(); n != 1 {
			t.Fatalf("%s: unit %d ran %d times", what, i, n)
		}
	}
}

// TestForkBusyRunsInline: while one caller's region holds the helpers, a
// second caller's large region runs inline on its own goroutine — every
// unit once, counted in inline_busy — and the first region still
// completes, every unit once.
func TestForkBusyRunsInline(t *testing.T) {
	testutil.Procs(t, 4)
	first := &countBody{ran: make([]atomic.Int32, 64), started: make(chan struct{}), hold: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		mat.Fork(len(first.ran), mat.ForkMinWork, first)
		close(done)
	}()
	<-first.started // the first region is fanned out and parked inside its body

	regions, busy := mat.ForkStats()
	second := &countBody{ran: make([]atomic.Int32, 64)}
	mat.Fork(len(second.ran), mat.ForkMinWork, second)
	second.check(t, "region issued while the helpers were busy")
	if r, b := mat.ForkStats(); r != regions || b != busy+1 {
		t.Fatalf("busy region: regions %d -> %d, inline_busy %d -> %d; want +0, +1", regions, r, busy, b)
	}

	close(first.hold)
	<-done
	first.check(t, "region that held the helpers")

	// the helpers are free again
	third := &countBody{ran: make([]atomic.Int32, 64)}
	mat.Fork(len(third.ran), mat.ForkMinWork, third)
	third.check(t, "region after the helpers came back")
	if r, _ := mat.ForkStats(); r != regions+1 {
		t.Fatalf("region after release did not fan out: regions %d -> %d", regions, r)
	}
}

// TestForkConcurrentCallers: two goroutines issue large GemmLanes
// products at once, over and over; whichever of them holds the helpers,
// both get the inline bits every time. Run under -race in CI.
func TestForkConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	_, lw := sparseWeights(t, rng, 192, 192, 0.3)
	const callers = 2
	xs, wants := make([]*mat.Matrix, callers), make([]*mat.Matrix, callers)
	testutil.Procs(t, 1)
	for c := range xs {
		xs[c] = mat.New(300+8*c, 192)
		xs[c].Randomize(rng, 1)
		wants[c] = mat.New(xs[c].Rows, 192)
		mat.GemmLanes(wants[c], xs[c], lw)
	}
	testutil.Procs(t, 4)
	regions, busy := mat.ForkStats()
	errc := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			got := mat.New(xs[c].Rows, 192)
			for i := 0; i < 100; i++ {
				mat.GemmLanes(got, xs[c], lw)
				if !mat.Equal(got, wants[c], 0) {
					errc <- fmt.Errorf("caller %d iteration %d: output differs from inline", c, i)
					return
				}
			}
			errc <- nil
		}()
	}
	for c := 0; c < callers; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if r, b := mat.ForkStats(); (r-regions)+(b-busy) != callers*100 || r == regions {
		t.Fatalf("%d regions fanned out and %d ran inline-busy over %d calls", r-regions, b-busy, callers*100)
	}
}

// TestForkLifecycle: helpers are started on demand, at most GOMAXPROCS-1
// of them, and never under GOMAXPROCS 1, where a large region runs
// inline without counting as busy; a region below the threshold or of
// one unit never reaches the executor at all.
func TestForkLifecycle(t *testing.T) {
	run := func(n, work int) {
		t.Helper()
		b := &countBody{ran: make([]atomic.Int32, n)}
		mat.Fork(n, work, b)
		b.check(t, fmt.Sprintf("Fork(%d, %d) at GOMAXPROCS %d", n, work, runtime.GOMAXPROCS(0)))
	}
	helpers := mat.ForkHelpers()
	regions, busy := mat.ForkStats()

	testutil.Procs(t, 1)
	run(64, mat.ForkMinWork)
	testutil.Procs(t, 3)
	run(64, mat.ForkMinWork-1)
	run(1, mat.ForkMinWork)
	run(0, mat.ForkMinWork)
	if h := mat.ForkHelpers(); h != helpers {
		t.Fatalf("inline regions started helpers: %d -> %d", helpers, h)
	}
	if r, b := mat.ForkStats(); r != regions || b != busy {
		t.Fatalf("inline regions counted: regions %d -> %d, inline_busy %d -> %d", regions, r, busy, b)
	}

	run(64, mat.ForkMinWork)
	run(2, mat.ForkMinWork) // two units: the caller and one helper
	if h := mat.ForkHelpers(); h != max(helpers, 2) {
		t.Fatalf("%d helpers at GOMAXPROCS 3 (was %d), want %d", h, helpers, max(helpers, 2))
	}
	if r, _ := mat.ForkStats(); r != regions+2 {
		t.Fatalf("regions %d -> %d, want +2", regions, r)
	}
}
