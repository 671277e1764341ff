package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/obs"
	"rt3/internal/pattern"
)

// kernelBenchSpec shapes the kernel micro-benchmark: one Transformer
// projection executed as X (batch x dim) @ W (dim x dim) across the
// registry's execution formats.
type kernelBenchSpec struct {
	dim      int
	batch    int
	psize    int
	sparsity float64
	minTime  time.Duration

	// batched mode: when seqs > 1, a second table compares one fused
	// MulInto over seqs*seqLen packed rows (what Engine.ForwardBatch
	// issues per layer) against seqs per-sequence calls of seqLen rows
	// each (the old per-request loop).
	seqs   int
	seqLen int
}

// runKernelBench times MulInto for every requested registry format, at
// the configured batch and at the two decode shapes (batch 8 and 7), and
// prints a table of per-call latency and GFLOP-equivalents/sec: the
// dense-equivalent rate (2*dim*dim*batch flops per call, what the layer
// replaces) and the effective rate over stored nonzeros (2*NNZ*batch).
// Every pattern product down to a decode step's rows fans out across the
// mat.Fork helpers, so all sections' rates depend on GOMAXPROCS: the
// header prints it and -json records it.
func runKernelBench(formats string, spec kernelBenchSpec) error {
	rng := rand.New(rand.NewSource(42))
	w := mat.New(spec.dim, spec.dim)
	w.Randomize(rng, 1)
	set := pattern.GenerateSet(w, spec.psize, spec.sparsity, 4, rng)
	x := mat.New(spec.batch, spec.dim)
	x.Randomize(rng, 1)

	var names []string
	if formats == "all" || formats == "" {
		names = kernel.Formats()
	} else {
		for _, n := range strings.Split(formats, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}

	// the configured batch, then the decode shapes: one full 8-row step
	// and the ragged 7-row step continuous batching mostly issues
	batches := []int{spec.batch}
	inputs := []*mat.Matrix{x}
	for _, b := range []int{8, 7} {
		if b != spec.batch {
			xb := mat.New(b, spec.dim)
			xb.Randomize(rng, 1)
			batches, inputs = append(batches, b), append(inputs, xb)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	fmt.Printf("kernel MulInto: %dx%d weights, pattern sparsity %.2f (psize %d), batch %v, GOMAXPROCS %d, lane ISA %s\n\n",
		spec.dim, spec.dim, spec.sparsity, spec.psize, batches, procs, mat.LaneISA())
	fmt.Printf("%-10s %6s %10s %10s %12s %14s %14s\n",
		"format", "batch", "nnz", "idx_words", "us/op", "GFLOPeq/s", "GFLOPeff/s")

	var section *kernelsSection
	if jsonRep != nil {
		section = &kernelsSection{Dim: spec.dim, Batch: spec.batch, Sparsity: spec.sparsity, GOMAXPROCS: procs, LaneISA: mat.LaneISA()}
		jsonRep.Kernels = section
	}
	for _, name := range names {
		k, err := kernel.Build(name, w, kernel.Options{Set: set})
		if err != nil {
			return err
		}
		for bi, batch := range batches {
			xb := inputs[bi]
			dst := mat.New(batch, spec.dim)
			k.MulInto(dst, xb) // warm up buffers
			perOp := timeKernel(k, dst, xb, spec.minTime)
			denseFlops := 2 * float64(spec.dim) * float64(spec.dim) * float64(batch)
			effFlops := 2 * float64(k.NNZ()) * float64(batch)
			fmt.Printf("%-10s %6d %10d %10d %12.2f %14.3f %14.3f\n",
				name, batch, k.NNZ(), k.IndexWords(),
				float64(perOp.Nanoseconds())/1e3,
				denseFlops/perOp.Seconds()/1e9,
				effFlops/perOp.Seconds()/1e9)
			if section != nil {
				section.Formats = append(section.Formats, kernelRow{
					Format: name, Batch: batch, NNZ: k.NNZ(), IndexWords: k.IndexWords(),
					USPerOp:   float64(perOp.Nanoseconds()) / 1e3,
					GFLOPEqS:  denseFlops / perOp.Seconds() / 1e9,
					GFLOPEffS: effFlops / perOp.Seconds() / 1e9,
				})
			}
		}
	}
	if spec.seqs > 1 {
		fmt.Println()
		if err := runBatchedKernelBench(names, w, set, spec); err != nil {
			return err
		}
	}
	fmt.Println()
	if err := runSparsityLadderBench(spec, section); err != nil {
		return err
	}
	if section != nil {
		reg := obs.NewRegistry()
		kernel.RegisterMetrics(reg)
		section.Metrics = reg.Snapshot()
	}
	return nil
}

// ladderSparsities are the pattern sparsities of the three evaluation
// levels (l6, l4, l3): the ladder a DVFS switch walks.
var ladderSparsities = []float64{0.3, 0.5, 0.7}

// sparserIsFasterFloor is the enforced speedup of the pattern format at
// the sparsest rung of the ladder over the densest: the paper's premise
// that a sparser pattern set is a faster model, which a format that
// pushes masked weights through a dense product does not have.
const sparserIsFasterFloor = 1.5

// runSparsityLadderBench times the serving default (pattern) against
// the dense reference (dense) over the same masked weights, at one
// decode step of the FFN up-projection (8 x dim x 4*dim), down the
// sparsity ladder. The two kernels of a rung are timed alternately, best
// of three each, so a slow spell of the host lands on both. Two floors
// are enforced: pattern is at least as fast as dense on every rung past
// the first, and pattern at the last rung is at least
// sparserIsFasterFloor times pattern at the first.
func runSparsityLadderBench(spec kernelBenchSpec, section *kernelsSection) error {
	const batch = 8
	rng := rand.New(rand.NewSource(45))
	K, N := spec.dim, 4*spec.dim
	w := mat.New(K, N)
	w.Randomize(rng, 1)
	x := mat.New(batch, K)
	x.Randomize(rng, 1)
	dst := mat.New(batch, N)
	flops := 2 * float64(batch) * float64(K) * float64(N)

	fmt.Printf("sparsity ladder: pattern vs dense over the same masked weights, one decode step (%dx%dx%d)\n\n", batch, K, N)
	fmt.Printf("%-9s %14s %14s %10s\n", "sparsity", "pattern GF/s", "dense GF/s", "ratio")
	var patternGF, denseGF []float64
	for _, sparsity := range ladderSparsities {
		set := pattern.GenerateSet(w, spec.psize, sparsity, 4, rng)
		pat, err := kernel.Build("pattern", w, kernel.Options{Set: set})
		if err != nil {
			return err
		}
		dense, err := kernel.Build("dense", w, kernel.Options{Set: set})
		if err != nil {
			return err
		}
		pat.MulInto(dst, x) // warm up scratch
		bestPat, bestDense := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for round := 0; round < 3; round++ {
			bestPat = min(bestPat, timeKernel(pat, dst, x, spec.minTime))
			bestDense = min(bestDense, timeKernel(dense, dst, x, spec.minTime))
		}
		pg, dg := flops/bestPat.Seconds()/1e9, flops/bestDense.Seconds()/1e9
		patternGF, denseGF = append(patternGF, pg), append(denseGF, dg)
		fmt.Printf("%-9.2f %14.3f %14.3f %9.2fx\n", sparsity, pg, dg, pg/dg)
		if section != nil {
			section.Ladder = append(section.Ladder, ladderRow{
				Sparsity: sparsity, PatternGFLOPEqS: pg, DenseGFLOPEqS: dg,
			})
		}
	}
	fmt.Println()
	last := len(ladderSparsities) - 1
	for i := 1; i <= last; i++ {
		if patternGF[i] < denseGF[i] {
			return fmt.Errorf("pattern floor FAIL: at sparsity %.2f pattern runs %.2f GFLOP-eq/s, below dense at %.2f",
				ladderSparsities[i], patternGF[i], denseGF[i])
		}
	}
	fmt.Printf("pattern floor PASS: pattern >= dense GFLOP-eq/s at sparsity %.2f (%.2f vs %.2f) and %.2f (%.2f vs %.2f)\n",
		ladderSparsities[1], patternGF[1], denseGF[1], ladderSparsities[last], patternGF[last], denseGF[last])
	gain := patternGF[last] / patternGF[0]
	if section != nil {
		section.SparserIsFasterX = gain
	}
	if gain < sparserIsFasterFloor {
		return fmt.Errorf("sparser-is-faster floor FAIL: pattern at sparsity %.2f is %.2fx pattern at %.2f, below the %.1fx floor",
			ladderSparsities[last], gain, ladderSparsities[0], sparserIsFasterFloor)
	}
	fmt.Printf("sparser-is-faster floor PASS: pattern at sparsity %.2f is %.2fx pattern at %.2f (>= %.1fx; dense %.2fx)\n",
		ladderSparsities[last], gain, ladderSparsities[0], sparserIsFasterFloor, denseGF[last]/denseGF[0])
	return nil
}

// runBatchedKernelBench prints the batched-execution comparison: one
// fused MulInto over the packed batch (seqs * seqLen rows — what a
// packed ForwardBatch issues per projection) versus per-sequence calls
// of seqLen rows each over the same input.
func runBatchedKernelBench(names []string, w *mat.Matrix, set *pattern.Set, spec kernelBenchSpec) error {
	rng := rand.New(rand.NewSource(43))
	rows := spec.seqs * spec.seqLen
	x := mat.New(rows, spec.dim)
	x.Randomize(rng, 1)

	fmt.Printf("batched execution: %d sequences x %d rows fused into one MulInto vs per-sequence calls\n\n",
		spec.seqs, spec.seqLen)
	fmt.Printf("%-10s %12s %12s %10s\n", "format", "fused_us", "perseq_us", "speedup")
	for _, name := range names {
		k, err := kernel.Build(name, w, kernel.Options{Set: set})
		if err != nil {
			return err
		}
		dst := mat.New(rows, spec.dim)
		k.MulInto(dst, x) // warm up buffers

		fused := timeKernel(k, dst, x, spec.minTime)
		perSeq := timeKernelFn(func() {
			for s := 0; s < spec.seqs; s++ {
				r0, r1 := s*spec.seqLen, (s+1)*spec.seqLen
				k.MulInto(dst.RowSpan(r0, r1), x.RowSpan(r0, r1))
			}
		}, spec.minTime)
		fmt.Printf("%-10s %12.2f %12.2f %9.2fx\n",
			name,
			float64(fused.Nanoseconds())/1e3,
			float64(perSeq.Nanoseconds())/1e3,
			float64(perSeq)/float64(fused))
		if jsonRep != nil && jsonRep.Kernels != nil {
			jsonRep.Kernels.Batched = append(jsonRep.Kernels.Batched, batchedRow{
				Format:   name,
				FusedUS:  float64(fused.Nanoseconds()) / 1e3,
				PerSeqUS: float64(perSeq.Nanoseconds()) / 1e3,
				Speedup:  float64(perSeq) / float64(fused),
			})
		}
	}
	return nil
}

// timeKernel measures the mean MulInto latency, running at least minTime.
func timeKernel(k kernel.Kernel, dst, x *mat.Matrix, minTime time.Duration) time.Duration {
	return timeKernelFn(func() { k.MulInto(dst, x) }, minTime)
}

// timeKernelFn measures the mean latency of f, running at least minTime.
func timeKernelFn(f func(), minTime time.Duration) time.Duration {
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		elapsed := time.Since(start)
		if elapsed >= minTime {
			return elapsed / time.Duration(iters)
		}
		if elapsed <= 0 {
			iters *= 1000
			continue
		}
		// scale iteration count toward the time target, capped at 100x
		scale := int(float64(minTime)/float64(elapsed)*1.2) + 1
		if scale > 100 {
			scale = 100
		}
		iters *= scale
	}
}
