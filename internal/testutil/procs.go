package testutil

import (
	"runtime"
	"testing"
)

// Procs sets GOMAXPROCS to n until the test ends. mat.Fork fans out only
// when GOMAXPROCS > 1: Procs(tb, 1) is the forced-inline reference of a
// region, Procs(tb, 4) lets it use the helpers whatever -cpu was given.
func Procs(tb testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// AllocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1): the
// floored mean of process-wide mallocs per call of f after one warm-up
// call, so allocations on the mat.Fork helpers count too. Process-wide
// also means a background malloc (a helper parking allocates a sudog, a
// timer fires) lands in the count, so the figure is the minimum over
// three windows of runs calls: an allocation f really makes shows in
// every window, a stray one in at most the window it fell in.
func AllocsPerRun(runs int, f func()) float64 {
	f()
	least := ^uint64(0)
	for window := 0; window < 3; window++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	return float64(least)
}
