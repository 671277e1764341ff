// Kernel formats: the unified execution API end to end.
//
// Every matrix product in this repo — dense training, the pattern-packed
// serving path, the dense packed panels under unpruned layers — computes
// through one destination-passing interface: kernel.Kernel. This example
// builds a pattern-pruned Transformer projection, constructs the three
// registered execution formats over the same masked weights through the
// kernel registry, verifies they agree with dense execution, and shows a
// large pattern product using every core from beneath MulInto (mat.Fork)
// while a decode-sized one stays on the calling goroutine.
//
// Run with: go run ./examples/kernel_formats
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/pattern"
)

func main() {
	log.SetFlags(0)

	// A projection-shaped weight matrix and the RT3 pattern set that
	// prunes it (what a deployed level swaps in at run time).
	rng := rand.New(rand.NewSource(1))
	const dim, batch = 128, 64
	w := mat.New(dim, dim)
	w.Randomize(rng, 1)
	set := pattern.GenerateSet(w, 8, 0.7, 4, rng)
	x := mat.New(batch, dim)
	x.Randomize(rng, 1)

	// Ground truth: dense execution over the masked weights.
	ref, err := kernel.Build("dense", w, kernel.Options{Set: set})
	if err != nil {
		log.Fatal(err)
	}
	want := kernel.Mul(ref, x)

	// One loop covers every registered format: each must match dense
	// execution exactly. The destination is allocated once and reused
	// across MulInto calls.
	fmt.Printf("%-10s %8s %10s %12s  %s\n", "format", "nnz", "idx_words", "us/op", "matches dense")
	dst := mat.New(batch, dim)
	for _, format := range kernel.Formats() {
		k, err := kernel.Build(format, w, kernel.Options{Set: set})
		if err != nil {
			log.Fatal(err)
		}
		k.MulInto(dst, x)
		ok := mat.Equal(dst, want, 0)
		start := time.Now()
		const iters = 50
		for i := 0; i < iters; i++ {
			k.MulInto(dst, x)
		}
		fmt.Printf("%-10s %8d %10d %12.1f  %v\n",
			format, k.NNZ(), k.IndexWords(),
			float64(time.Since(start).Microseconds())/iters, ok)
		if !ok {
			log.Fatalf("%s diverged from dense execution", format)
		}
	}

	// Fan-out happens inside the kernel bodies, above a fixed work
	// threshold: the same MulInto call runs a 1024-row batch on every
	// core and an 8-row decode step inline, with identical bits either
	// way. GOMAXPROCS(1) is the serial reference.
	pat, err := kernel.Build("pattern", w, kernel.Options{Set: set})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	procs := runtime.GOMAXPROCS(0)
	for _, rows := range []int{8, 1024} {
		xb := mat.New(rows, dim)
		xb.Randomize(rng, 1)
		serial, forked := mat.New(rows, dim), mat.New(rows, dim)
		timeMul := func(dst *mat.Matrix) float64 {
			pat.MulInto(dst, xb) // warm the scratch (and wake the helpers once)
			start := time.Now()
			const iters = 50
			for i := 0; i < iters; i++ {
				pat.MulInto(dst, xb)
			}
			return float64(time.Since(start).Microseconds()) / iters
		}
		runtime.GOMAXPROCS(1)
		one := timeMul(serial)
		runtime.GOMAXPROCS(procs)
		before := mat.ForkStats().Regions
		all := timeMul(forked)
		after := mat.ForkStats().Regions
		fmt.Printf("pattern %4d rows: %8.1f us/op on 1 core, %8.1f us/op on %d (%d regions fanned out)  bit-identical %v\n",
			rows, one, all, procs, after-before, mat.Equal(serial, forked, 0))
	}
}
