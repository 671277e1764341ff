package mat

import "testing"

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
	next := make([]int, w.Cols)
	for i, v := range w.Data {
		if c := i % w.Cols; v != 0 {
			lw.Put(c, next[c], i/w.Cols, v)
			next[c]++
		}
	}
	return lw
}

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

// LaneBlockRows returns the rows of the blocks GemmLanes splits a
// product into on this host: 16 where the ZMM kernels run, else 8.
func LaneBlockRows() int { return laneHost.width }
