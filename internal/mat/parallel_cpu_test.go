//go:build unix

package mat_test

import (
	"math/rand"
	"runtime"
	"syscall"
	"testing"
	"time"

	"rt3/internal/mat"
	"rt3/internal/testutil"
)

// cpuTime is the CPU time, user and system, this process has used.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// burst runs a decode step's worth of fanned-out products.
func burst(dst, x *mat.Matrix, lw *mat.LaneWeights) {
	for i := 0; i < 20; i++ {
		mat.GemmLanes(dst, x, lw)
	}
}

// TestForkHelpersPark is the idle-cost bound: once the spin budget has
// lapsed after a burst every helper is blocked in the parking lot, and
// the process then burns under 5 ms of CPU in 200 ms.
func TestForkHelpersPark(t *testing.T) {
	testutil.Procs(t, 4)
	rng := rand.New(rand.NewSource(205))
	_, lw := sparseWeights(t, rng, 192, 768, 0.3)
	x, dst := mat.New(8, 192), mat.New(8, 768)
	x.Randomize(rng, 1)
	before := mat.ForkStats().Regions
	burst(dst, x, lw)
	if after := mat.ForkStats().Regions; after-before != 20 {
		t.Fatalf("%d of 20 products fanned out", after-before)
	}
	deadline := time.Now().Add(2 * time.Second)
	for mat.ForkParked() != mat.ForkHelpers() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers parked 2 s after the last region", mat.ForkParked(), mat.ForkHelpers())
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC() // not in the window
	start := cpuTime(t)
	time.Sleep(200 * time.Millisecond)
	idle := cpuTime(t) - start
	t.Logf("%v of CPU over an idle 200 ms with %d helpers parked", idle, mat.ForkHelpers())
	if idle >= 5*time.Millisecond {
		t.Fatalf("idle helpers burn CPU: %v in 200 ms", idle)
	}
	if parked, helpers := mat.ForkParked(), mat.ForkHelpers(); parked != helpers {
		t.Fatalf("%d of %d helpers parked after the idle window", parked, helpers)
	}

	// and they come back: the next region wakes them
	wakes := mat.ForkStats().Wakes
	burst(dst, x, lw)
	if woken := mat.ForkStats().Wakes - wakes; woken == 0 {
		t.Fatal("a region after the idle window woke no helper")
	}
}

// TestForkBurstCost bounds what the spinning costs a server that is
// neither idle nor busy: 100 products 5 ms apart, each waking the
// helpers and each followed by one spin budget on every P (the caller
// sleeps, so the helpers have both). The same products at GOMAXPROCS 1,
// where nothing spins, are the baseline.
func TestForkBurstCost(t *testing.T) {
	const products, procs = 100, 2
	rng := rand.New(rand.NewSource(206))
	_, lw := sparseWeights(t, rng, 192, 768, 0.3)
	x, dst := mat.New(8, 192), mat.New(8, 768)
	x.Randomize(rng, 1)
	run := func(procs int) time.Duration {
		testutil.Procs(t, procs)
		mat.GemmLanes(dst, x, lw)
		start := cpuTime(t)
		for i := 0; i < products; i++ {
			mat.GemmLanes(dst, x, lw)
			time.Sleep(5 * time.Millisecond)
		}
		return cpuTime(t) - start
	}
	inline := run(1)
	forked := run(procs)
	t.Logf("%d products 5 ms apart: %v CPU inline, %v at GOMAXPROCS %d with helpers spinning %v after each",
		products, inline, forked, procs, mat.ForkSpin)
	// twice the budget: the wake-ups and a noisy host are in it too
	if limit := inline + 2*products*procs*mat.ForkSpin; forked > limit {
		t.Fatalf("%v CPU with helpers against %v inline: more than %v", forked, inline, limit)
	}
}
