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
// call, so allocations on the mat.Fork helpers count too.
func AllocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}
