package mat_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rt3/internal/mat"
	"rt3/internal/testutil"
)

// forkRows are the batch sizes of a decode step (one lane block, split by
// column partition) and both sides of every block edge a row split can
// fall on (8- or 16-row lane blocks — 12 rows are one wide block split by
// partition where the ZMM kernels run and two narrow ones elsewhere, 40
// rows end in a narrow last block either way), up to 513 rows.
var forkRows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 40, 63, 64, 65, 255, 256, 257, 513}

// TestForkGemmMatchesInline is the bit-identity sweep of the product
// kernel that splits across the Fork helpers: GemmLanes gives the bits
// of its inline run (GOMAXPROCS 1) at every batch size and
// sparsity (density 1 included), at the three serving shapes and at
// 24x12 (one ragged partition, under the threshold at one block), and
// fans out exactly when it has two units and its work reaches
// ForkMinWork.
func TestForkGemmMatchesInline(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	type run struct {
		what    string
		mul     func(dst, x *mat.Matrix)
		x, want *mat.Matrix
		forks   bool
	}
	var runs []run
	testutil.Procs(t, 1)
	for _, shape := range [][2]int{{192, 192}, {192, 768}, {768, 192}, {24, 12}} {
		K, N := shape[0], shape[1]
		for _, sparsity := range []float64{0, 0.3, 0.7} {
			_, lw := sparseWeights(t, rng, K, N, sparsity)
			mul := func(dst, x *mat.Matrix) { mat.GemmLanes(dst, x, lw) }
			for _, M := range forkRows {
				if M > 65 && K*N > 192*192 {
					continue // the large row splits are covered at 192x192
				}
				x := mat.New(M, K)
				x.Randomize(rng, 1)
				want := mat.New(M, N)
				mul(want, x)
				// the kernel's units at M rows and the work it counts
				n, work := (N+mat.LanePartition-1)/mat.LanePartition, (M+7)/8*8*lw.Steps()*mat.LaneGroup
				if width := mat.LaneBlockRows(); M > width {
					n = (M + width - 1) / width
				}
				runs = append(runs, run{
					fmt.Sprintf("lanes %dx%d s%.1f M=%d", K, N, sparsity, M), mul, x, want,
					n >= 2 && work >= mat.ForkMinWork,
				})
			}
		}
	}
	testutil.Procs(t, 4)
	forked := 0
	for _, r := range runs {
		got, intact := guardedRows(t, r.x.Rows, r.want.Cols)
		before := mat.ForkStats().Regions
		r.mul(got, r.x)
		after := mat.ForkStats().Regions
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
	dead    atomic.Bool  // set once Fork returned: no Range may follow
	late    atomic.Int32 // Range calls that did
}

func (b *countBody) Range(lo, hi int) {
	if b.dead.Load() {
		b.late.Add(1)
	}
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

// took requires that the region's units [0, n) ran once and no other
// unit ran since the last call, and zeroes the counts.
func (b *countBody) took(t *testing.T, region, n int) {
	t.Helper()
	for i := range b.ran {
		want := int32(0)
		if i < n {
			want = 1
		}
		if got := b.ran[i].Swap(0); got != want {
			t.Fatalf("region %d of %d units: unit %d ran %d times", region, n, i, got)
		}
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

	before := mat.ForkStats()
	second := &countBody{ran: make([]atomic.Int32, 64)}
	mat.Fork(len(second.ran), mat.ForkMinWork, second)
	second.check(t, "region issued while the helpers were busy")
	if after := mat.ForkStats(); after.Regions != before.Regions || after.InlineBusy != before.InlineBusy+1 {
		t.Fatalf("busy region: %+v -> %+v; want regions +0, inline_busy +1", before, after)
	}

	close(first.hold)
	<-done
	first.check(t, "region that held the helpers")

	// the helpers are free again
	third := &countBody{ran: make([]atomic.Int32, 64)}
	mat.Fork(len(third.ran), mat.ForkMinWork, third)
	third.check(t, "region after the helpers came back")
	if r := mat.ForkStats().Regions; r != before.Regions+1 {
		t.Fatalf("region after release did not fan out: regions %d -> %d", before.Regions, r)
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
	before := mat.ForkStats()
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
	after := mat.ForkStats()
	regions, busy := after.Regions-before.Regions, after.InlineBusy-before.InlineBusy
	if regions+busy != callers*100 || regions == 0 {
		t.Fatalf("%d regions fanned out and %d ran inline-busy over %d calls", regions, busy, callers*100)
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
	before := mat.ForkStats()

	testutil.Procs(t, 1)
	run(64, mat.ForkMinWork)
	testutil.Procs(t, 3)
	run(64, mat.ForkMinWork-1)
	run(1, mat.ForkMinWork)
	run(0, mat.ForkMinWork)
	if h := mat.ForkHelpers(); h != helpers {
		t.Fatalf("inline regions started helpers: %d -> %d", helpers, h)
	}
	if after := mat.ForkStats(); after != before {
		t.Fatalf("inline regions counted: %+v -> %+v", before, after)
	}

	run(64, mat.ForkMinWork)
	run(2, mat.ForkMinWork) // two units: the caller and one helper
	if h := mat.ForkHelpers(); h != max(helpers, 2) {
		t.Fatalf("%d helpers at GOMAXPROCS 3 (was %d), want %d", h, helpers, max(helpers, 2))
	}
	if r := mat.ForkStats().Regions; r != before.Regions+2 {
		t.Fatalf("regions %d -> %d, want +2", before.Regions, r)
	}
}

// TestForkStress is the protocol under the load a decode step puts on
// it: 100k back-to-back regions of 2-64 tiny units. Every unit runs
// exactly once, and no helper, however late it arrives, calls Range on a
// body whose Fork has returned: each body is poisoned on return and
// re-armed only when its turn comes round again, so a straggler shows
// either as a late call or as a unit run twice. CI runs it under -race
// at -cpu 1,2,4.
func TestForkStress(t *testing.T) {
	regions := 100_000
	if testing.Short() {
		regions = 20_000
	}
	bodies := make([]*countBody, 4)
	for i := range bodies {
		bodies[i] = &countBody{ran: make([]atomic.Int32, 64)}
		bodies[i].dead.Store(true)
	}
	rng := rand.New(rand.NewSource(204))
	before := mat.ForkStats()
	for r := 0; r < regions; r++ {
		b, n := bodies[r%len(bodies)], 2+rng.Intn(63)
		b.dead.Store(false)
		mat.Fork(n, mat.ForkMinWork, b)
		b.dead.Store(true)
		b.took(t, r, n)
	}
	for i, b := range bodies {
		if n := b.late.Load(); n != 0 {
			t.Fatalf("body %d: %d Range calls after its Fork returned", i, n)
		}
	}
	after := mat.ForkStats()
	t.Logf("GOMAXPROCS %d: %d regions, %d helped, %d wakes", runtime.GOMAXPROCS(0),
		after.Regions-before.Regions, after.Helped-before.Helped, after.Wakes-before.Wakes)
	if fanned := after.Regions - before.Regions; fanned != int64(regions) && runtime.GOMAXPROCS(0) > 1 {
		t.Fatalf("%d of %d regions fanned out", fanned, regions)
	}
}

// TestForkCallerFinishesAlone: a caller never waits for a helper to
// arrive. With the other P hogged by a goroutine that does not yield, the
// helpers run only when the runtime preempts the hog (every 10 ms), and
// 2000 regions still finish in the time the caller needs to run them
// itself — a dispatch that waited for its helpers would take 20 s.
func TestForkCallerFinishesAlone(t *testing.T) {
	testutil.Procs(t, 2)
	var stop, spinning atomic.Bool
	hogged := make(chan struct{})
	go func() {
		defer close(hogged)
		for !stop.Load() {
			spinning.Store(true)
		}
	}()
	defer func() { stop.Store(true); <-hogged }()
	for !spinning.Load() {
		runtime.Gosched()
	}
	b := &countBody{ran: make([]atomic.Int32, 64)}
	start := time.Now()
	for r := 0; r < 2000; r++ {
		mat.Fork(len(b.ran), mat.ForkMinWork, b)
		b.took(t, r, len(b.ran))
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("2000 regions beside a hogged P took %v: the caller waited for its helpers", d)
	}
}
