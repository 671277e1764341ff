package mat

import (
	"slices"
	"testing"
)

// LaneWeightsOf packs the nonzeros of w into column streams; shared by
// the package's internal and external tests.
func LaneWeightsOf(tb testing.TB, w *Matrix) *LaneWeights {
	tb.Helper()
	counts := make([]int32, w.Cols)
	for i, v := range w.Data {
		if v != 0 {
			counts[i%w.Cols]++
		}
	}
	lw, err := NewLaneWeights(w.Rows, w.Cols, counts)
	if err != nil {
		tb.Fatal(err)
	}
	cur := lw.Cursors()
	for i, v := range w.Data {
		if c := i % w.Cols; v != 0 {
			lw.Store(cur[c], i/w.Cols, v)
			cur[c] += LaneGroup
		}
	}
	return lw
}

// ExpSub is expSub on the kernel this host runs.
func ExpSub(dst, src []float64, shift float64) { expSub(dst, src, shift, tailHost) }

// ForkHelpers returns how many helper goroutines Fork has started.
func ForkHelpers() int {
	forker.mu.Lock()
	defer forker.mu.Unlock()
	return forker.helpers
}

// Steps returns the number of interleaved stream steps, padding
// included: GemmLanes counts Steps()*LaneGroup stored weights of work
// per batch row.
func (w *LaneWeights) Steps() int { return len(w.val) / LaneGroup }

// ForkParked returns how many helpers are blocked in the parking lot.
func ForkParked() int { return int(forker.parked.Load()) }

// ForkSpin is the helpers' spin budget.
const ForkSpin = forkSpin

// Cols returns the columns in stream order, LaneGroup to a group.
func (w *LaneWeights) Cols() []int32 { return w.cols }

// GemmLanesTwin is GemmLanes on a chosen twin: the assembly kernels
// (asm) or laneKernGo, over blocks of width rows (8, or 16 for the ZMM
// kernels and their portable reference).
func GemmLanesTwin(dst, x *Matrix, w *LaneWeights, asm bool, width int) {
	gemmLanes(dst, x, w, laneKern{asm, width})
}

// LaneBlockRows returns the rows of the blocks GemmLanes splits a
// product into on this host: 16 where the ZMM kernels run, else 8.
func LaneBlockRows() int { return laneHost.width }

// AttendTwin returns Attend on the named twin ("go", "avx" or "avx512")
// and whether this host (or build) can run it.
func AttendTwin(name string) (func(out, q, kT []float64, ld int, v []float64, vs, rows int, scale float64, p []float64), bool) {
	kern := isa(slices.Index(isaNames[:], name))
	return func(out, q, kT []float64, ld int, v []float64, vs, rows int, scale float64, p []float64) {
		attend(out, q, [][]float64{kT}, 0, [][]float64{v}, 0, ld, vs, rows, scale, p, kern)
	}, kern <= attendHost
}

// AttendPagedTwin returns AttendPaged on the named twin and whether this
// host (or build) can run it.
func AttendPagedTwin(name string) (func(out, q []float64, pages [][]float64, ko, vo, ld, vs, rows int, scale float64, p []float64), bool) {
	kern := isa(slices.Index(isaNames[:], name))
	return func(out, q []float64, pages [][]float64, ko, vo, ld, vs, rows int, scale float64, p []float64) {
		attend(out, q, pages, ko, pages, vo, ld, vs, rows, scale, p, kern)
	}, kern <= attendHost
}
