package nn_test

import (
	"math/rand"
	"strings"
	"testing"

	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/nn"
	"rt3/internal/testutil"
)

// sparseLinear builds a Linear and a packed kernel over its weights: the
// pattern format with every weight kept.
func sparseLinear(t *testing.T, seed int64) (*nn.Linear, kernel.Kernel) {
	t.Helper()
	l := nn.NewLinear("l", 6, 5, rand.New(rand.NewSource(seed)))
	return l, allKept(t, l.W.Value)
}

// allKept builds the pattern kernel that keeps every weight of w, what
// the engine installs on the linears no level prunes.
func allKept(t *testing.T, w *mat.Matrix) kernel.Kernel {
	t.Helper()
	k, err := kernel.Build("pattern", w, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestLinearKernelForwardMatchesDense: installing a kernel over the same
// weights must not change Forward output (including the bias add), and
// uninstalling must restore dense execution.
func TestLinearKernelForwardMatchesDense(t *testing.T) {
	l, k := sparseLinear(t, 21)
	rng := rand.New(rand.NewSource(22))
	x := mat.New(3, 6)
	x.Randomize(rng, 1)

	want := l.Forward(x).Clone()
	l.SetKernel(k)
	if l.Kernel() == nil {
		t.Fatal("Kernel() nil after SetKernel")
	}
	got := l.Forward(x)
	if !mat.Equal(got, want, 1e-12) {
		t.Fatal("kernel forward differs from dense forward")
	}
	l.SetKernel(nil)
	if !mat.Equal(l.Forward(x), want, 0) {
		t.Fatal("dense execution not restored by SetKernel(nil)")
	}
}

// TestLinearKernelParallelForward runs the same check at batches the
// packed product fans out across the mat.Fork helpers, by column
// partition or lane block (16 rows) and by row block (256 rows):
// Forward is bit-identical to its inline run (GOMAXPROCS 1) and matches
// the dense forward. At 256 rows the bias add is a second region.
func TestLinearKernelParallelForward(t *testing.T) {
	l := nn.NewLinear("l", 96, 384, rand.New(rand.NewSource(23)))
	rng := rand.New(rand.NewSource(24))
	for _, c := range [][2]int{{16, 1}, {256, 2}} {
		rows, regions := c[0], int64(c[1])
		x := mat.New(rows, 96)
		x.Randomize(rng, 1)
		l.SetKernel(nil)
		dense := l.Forward(x).Clone()
		l.SetKernel(allKept(t, l.W.Value))
		testutil.Procs(t, 1)
		inline := l.Forward(x).Clone()
		testutil.Procs(t, 4)
		before := mat.ForkStats().Regions
		forked := l.Forward(x)
		after := mat.ForkStats().Regions
		if !mat.Equal(forked, inline, 0) {
			t.Fatalf("%d rows: forked kernel forward differs from inline", rows)
		}
		if !mat.Equal(forked, dense, 1e-12) {
			t.Fatalf("%d rows: kernel forward differs from dense forward", rows)
		}
		if after-before != regions {
			t.Errorf("%d rows: %d regions fanned out, want %d", rows, after-before, regions)
		}
	}
}

// TestLinearSetKernelDimMismatchPanics: a kernel of the wrong shape must
// be rejected at install time, not crash mid-request.
func TestLinearSetKernelDimMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	l := nn.NewLinear("l", 4, 4, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic installing mismatched kernel")
		}
	}()
	l.SetKernel(kernel.NewDense(mat.New(3, 4)))
}

// TestLinearBackwardGuardsPackedKernel pins the training contract: with
// a packed kernel installed, Forward runs pruned weights while Backward
// would differentiate the dense W, so Backward must refuse to run.
func TestLinearBackwardGuardsPackedKernel(t *testing.T) {
	l, k := sparseLinear(t, 26)
	rng := rand.New(rand.NewSource(27))
	x := mat.New(2, 6)
	x.Randomize(rng, 1)
	l.SetKernel(k)
	out := l.Forward(x)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Backward ran with a packed kernel installed")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "SetKernel(nil)") {
			t.Fatalf("guard panic should tell the user the fix, got %v", r)
		}
	}()
	l.Backward(mat.New(out.Rows, out.Cols))
}

// TestLinearBackwardAfterKernelRemoved: the guard clears with the
// kernel, so the dense train loop keeps working.
func TestLinearBackwardAfterKernelRemoved(t *testing.T) {
	l, k := sparseLinear(t, 28)
	rng := rand.New(rand.NewSource(29))
	x := mat.New(2, 6)
	x.Randomize(rng, 1)
	l.SetKernel(k)
	l.Forward(x)
	l.SetKernel(nil)
	l.Forward(x)
	dy := mat.New(2, 5)
	dy.Fill(1)
	if dx := l.Backward(dy); dx.Rows != 2 || dx.Cols != 6 {
		t.Fatalf("Backward returned %dx%d", dx.Rows, dx.Cols)
	}
}

// TestLinearBufferReuse pins the aliasing contract: with reuse on,
// same-shaped Forward calls return the same storage; turning it off
// restores fresh allocations.
func TestLinearBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	l := nn.NewLinear("l", 4, 3, rng)
	x := mat.New(2, 4)
	x.Randomize(rng, 1)

	a := l.Forward(x)
	b := l.Forward(x)
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("reuse off: consecutive outputs share storage")
	}

	l.SetBufferReuse(true)
	c := l.Forward(x)
	d := l.Forward(x)
	if &c.Data[0] != &d.Data[0] {
		t.Fatal("reuse on: outputs did not share the preallocated buffer")
	}
	if !mat.Equal(c, b, 1e-12) {
		t.Fatal("buffer reuse changed forward values")
	}
	// a batch-size change reallocates, then settles again
	x9 := mat.New(9, 4)
	x9.Randomize(rng, 1)
	e := l.Forward(x9)
	if e.Rows != 9 {
		t.Fatalf("rows %d", e.Rows)
	}

	l.SetBufferReuse(false)
	f := l.Forward(x)
	g := l.Forward(x)
	if &f.Data[0] == &g.Data[0] {
		t.Fatal("reuse off again: outputs still share storage")
	}
}

// TestLinearMicroKernelFormats installs the lane micro-kernel with every
// weight kept (the "pattern" format with no set) into Linear: it must
// reproduce dense Forward bit for bit (the bias add is the same code
// path) and run the layer's hot path allocation-free with buffer reuse
// on.
func TestLinearMicroKernelFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	l := nn.NewLinear("l", 12, 9, rng)
	x := mat.New(8, 12)
	x.Randomize(rng, 1)
	want := l.Forward(x).Clone()
	l.SetKernel(allKept(t, l.W.Value))
	if got := l.Forward(x); !mat.Equal(got, want, 0) {
		t.Fatal("packed Forward differs from dense")
	}
	l.SetBufferReuse(true)
	l.Forward(x) // warm the buffer and kernel scratch
	if allocs := testing.AllocsPerRun(50, func() { l.Forward(x) }); allocs != 0 {
		t.Errorf("%v allocs per Forward, want 0", allocs)
	}
	l.SetBufferReuse(false)
	l.SetKernel(nil)
	if !mat.Equal(l.Forward(x), want, 0) {
		t.Fatal("dense execution not restored")
	}
}

// TestLinearPackedForwardZeroAllocs is the serving hot path contract at
// the layer level: packed kernel + buffer reuse runs allocation-free in
// steady state.
func TestLinearPackedForwardZeroAllocs(t *testing.T) {
	l, k := sparseLinear(t, 31)
	rng := rand.New(rand.NewSource(32))
	x := mat.New(8, 6)
	x.Randomize(rng, 1)
	l.SetKernel(k)
	l.SetBufferReuse(true)
	l.Forward(x) // warm the buffer
	if allocs := testing.AllocsPerRun(50, func() { l.Forward(x) }); allocs != 0 {
		t.Fatalf("%v allocs per packed Forward, want 0", allocs)
	}
}
