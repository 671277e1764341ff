package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/obs"
	"rt3/internal/pattern"
)

// The kernel micro-benchmark times one Transformer projection,
// X (kernelBatch x kernelDim) @ W (kernelDim x kernelDim), in every
// registry format over a pattern set of kernelSparsity in kernelPSize
// blocks. Its batched table fuses kernelSeqs sequences of kernelSeqLen
// rows, below one 8-lane tile, so the per-sequence arm pays the padded
// tile real per-request calls take.
const (
	kernelDim      = 192
	kernelBatch    = 64
	kernelPSize    = 8
	kernelSparsity = 0.7
	kernelSeqs     = 8
	kernelSeqLen   = 6
)

type kernelsSection struct {
	Dim      int     `json:"dim"`
	Batch    int     `json:"batch"`
	Sparsity float64 `json:"sparsity"`
	// LaneISA is the twin of the lane kernel the pattern rows ran (avx512,
	// avx or go): a floor read on one says nothing about another.
	LaneISA string `json:"lane_isa"`
	// GOMAXPROCS is the parallelism every pattern row ran at (its
	// products split across the mat.Fork helpers).
	GOMAXPROCS int          `json:"gomaxprocs"`
	Formats    []kernelRow  `json:"formats"`
	Batched    []batchedRow `json:"batched,omitempty"`
	Ladder     []ladderRow  `json:"ladder,omitempty"`
	// SparserIsFasterX is pattern's rate at the sparsest ladder rung over
	// its rate at the densest (the enforced >= 1.5x contract).
	SparserIsFasterX float64            `json:"sparser_is_faster_x,omitempty"`
	Metrics          map[string]float64 `json:"metrics"`
}

type kernelRow struct {
	Format     string  `json:"format"`
	Batch      int     `json:"batch"`
	NNZ        int     `json:"nnz"`
	IndexWords int     `json:"index_words"`
	USPerOp    float64 `json:"us_per_op"`
	GFLOPEqS   float64 `json:"gflop_eq_per_s"`
	GFLOPEffS  float64 `json:"gflop_eff_per_s"`
}

type batchedRow struct {
	Format   string  `json:"format"`
	FusedUS  float64 `json:"fused_us"`
	PerSeqUS float64 `json:"perseq_us"`
	Speedup  float64 `json:"speedup"`
}

// ladderRow is one rung of the sparsity ladder: pattern vs dense over
// the same masked weights at one decode step.
type ladderRow struct {
	Sparsity        float64 `json:"sparsity"`
	PatternGFLOPEqS float64 `json:"pattern_gflop_eq_per_s"`
	DenseGFLOPEqS   float64 `json:"dense_gflop_eq_per_s"`
}

// runKernels times MulInto for every registry format, at kernelBatch and
// at the two decode shapes (batch 8 and 7), as per-call latency and
// GFLOP-equivalents/sec: the dense-equivalent rate (2*dim*dim*batch flops
// per call, what the layer replaces) and the effective rate over stored
// nonzeros (2*NNZ*batch). Then come the batched table and the sparsity
// ladder. Every pattern product down to a decode step's rows fans out
// across the mat.Fork helpers, so all rates depend on GOMAXPROCS: the
// header prints it and -json records it.
func runKernels() (*kernelsSection, error) {
	rng := rand.New(rand.NewSource(42))
	w := mat.New(kernelDim, kernelDim)
	w.Randomize(rng, 1)
	set := pattern.GenerateSet(w, kernelPSize, kernelSparsity, 4, rng)
	// the configured batch, then the decode shapes: one full 8-row step
	// and the ragged 7-row step continuous batching mostly issues
	batches := []int{kernelBatch, 8, 7}
	inputs := make([]*mat.Matrix, len(batches))
	for i, b := range batches {
		inputs[i] = mat.New(b, kernelDim)
		inputs[i].Randomize(rng, 1)
	}
	s := &kernelsSection{
		Dim: kernelDim, Batch: kernelBatch, Sparsity: kernelSparsity,
		LaneISA: mat.LaneISA(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	fmt.Printf("kernel MulInto: %dx%d weights, pattern sparsity %.2f (psize %d), batch %v, GOMAXPROCS %d, lane ISA %s\n\n",
		kernelDim, kernelDim, kernelSparsity, kernelPSize, batches, s.GOMAXPROCS, s.LaneISA)
	for _, name := range kernel.Formats() {
		k, err := kernel.Build(name, w, kernel.Options{Set: set})
		if err != nil {
			return nil, err
		}
		for i, x := range inputs {
			dst := mat.New(x.Rows, kernelDim)
			k.MulInto(dst, x) // warm up buffers
			ns := nsPerOp(func() { k.MulInto(dst, x) })
			s.Formats = append(s.Formats, kernelRow{
				Format: name, Batch: batches[i], NNZ: k.NNZ(), IndexWords: k.IndexWords(),
				USPerOp:   ns / 1e3,
				GFLOPEqS:  2 * float64(kernelDim*kernelDim*batches[i]) / ns,
				GFLOPEffS: 2 * float64(k.NNZ()*batches[i]) / ns,
			})
		}
	}
	printRows(os.Stdout, s.Formats)

	var err error
	if s.Batched, err = runBatchedKernels(w, set); err != nil {
		return nil, err
	}
	if s.Ladder, err = runSparsityLadder(); err != nil {
		return nil, err
	}
	s.SparserIsFasterX = s.Ladder[len(s.Ladder)-1].PatternGFLOPEqS / s.Ladder[0].PatternGFLOPEqS
	reg := obs.NewRegistry()
	kernel.RegisterMetrics(reg)
	s.Metrics = reg.Snapshot()
	return s, nil
}

// ladderSparsities are the pattern sparsities of the three evaluation
// levels (l6, l4, l3): the ladder a DVFS switch walks.
var ladderSparsities = []float64{0.3, 0.5, 0.7}

// sparserIsFasterFloor is the enforced speedup of the pattern format at
// the sparsest rung of the ladder over the densest: the paper's premise
// that a sparser pattern set is a faster model, which a format that
// pushes masked weights through a dense product does not have.
const sparserIsFasterFloor = 1.5

// runSparsityLadder times the serving default (pattern) against the
// dense reference (dense) over the same masked weights, at one decode
// step of the FFN up-projection (8 x dim x 4*dim), down the sparsity
// ladder. The two kernels of a rung are timed alternately, best of
// three each, so a slow spell of the host lands on both.
func runSparsityLadder() ([]ladderRow, error) {
	const batch = 8
	rng := rand.New(rand.NewSource(45))
	K, N := kernelDim, 4*kernelDim
	w := mat.New(K, N)
	w.Randomize(rng, 1)
	x := mat.New(batch, K)
	x.Randomize(rng, 1)
	dst := mat.New(batch, N)
	flops := 2 * float64(batch) * float64(K) * float64(N)

	fmt.Printf("sparsity ladder: pattern vs dense over the same masked weights, one decode step (%dx%dx%d)\n\n", batch, K, N)
	var rows []ladderRow
	for _, sparsity := range ladderSparsities {
		set := pattern.GenerateSet(w, kernelPSize, sparsity, 4, rng)
		pat, err := kernel.Build("pattern", w, kernel.Options{Set: set})
		if err != nil {
			return nil, err
		}
		dense, err := kernel.Build("dense", w, kernel.Options{Set: set})
		if err != nil {
			return nil, err
		}
		pat.MulInto(dst, x) // warm up scratch
		bestPat, bestDense := math.Inf(1), math.Inf(1)
		for range 3 {
			bestPat = min(bestPat, nsPerOp(func() { pat.MulInto(dst, x) }))
			bestDense = min(bestDense, nsPerOp(func() { dense.MulInto(dst, x) }))
		}
		rows = append(rows, ladderRow{Sparsity: sparsity, PatternGFLOPEqS: flops / bestPat, DenseGFLOPEqS: flops / bestDense})
	}
	printRows(os.Stdout, rows)
	return rows, nil
}

// runBatchedKernels compares one fused MulInto over the packed batch
// (kernelSeqs * kernelSeqLen rows, what a packed ForwardBatch issues per
// projection) with per-sequence calls of kernelSeqLen rows each over the
// same input.
func runBatchedKernels(w *mat.Matrix, set *pattern.Set) ([]batchedRow, error) {
	rng := rand.New(rand.NewSource(43))
	x := mat.New(kernelSeqs*kernelSeqLen, kernelDim)
	x.Randomize(rng, 1)

	fmt.Printf("batched execution: %d sequences x %d rows fused into one MulInto vs per-sequence calls\n\n",
		kernelSeqs, kernelSeqLen)
	var rows []batchedRow
	for _, name := range kernel.Formats() {
		k, err := kernel.Build(name, w, kernel.Options{Set: set})
		if err != nil {
			return nil, err
		}
		dst := mat.New(x.Rows, kernelDim)
		k.MulInto(dst, x) // warm up buffers
		fused := nsPerOp(func() { k.MulInto(dst, x) })
		perSeq := nsPerOp(func() {
			for r0 := 0; r0 < x.Rows; r0 += kernelSeqLen {
				k.MulInto(dst.RowSpan(r0, r0+kernelSeqLen), x.RowSpan(r0, r0+kernelSeqLen))
			}
		})
		rows = append(rows, batchedRow{Format: name, FusedUS: fused / 1e3, PerSeqUS: perSeq / 1e3, Speedup: perSeq / fused})
	}
	printRows(os.Stdout, rows)
	return rows, nil
}

// nsPerOp is f's mean time per call under the standard benchmark timer.
func nsPerOp(f func()) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for range b.N {
			f()
		}
	})
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// floors holds pattern to at least dense's rate on every ladder rung past
// the first, and pattern at the last rung to sparserIsFasterFloor times
// pattern at the first.
func (s *kernelsSection) floors() ([]string, error) {
	l := s.Ladder
	first, last := l[0], l[len(l)-1]
	for _, r := range l[1:] {
		if r.PatternGFLOPEqS < r.DenseGFLOPEqS {
			return nil, fmt.Errorf("pattern floor FAIL: at sparsity %.2f pattern runs %.2f GFLOP-eq/s, below dense at %.2f",
				r.Sparsity, r.PatternGFLOPEqS, r.DenseGFLOPEqS)
		}
	}
	pass := []string{fmt.Sprintf("pattern floor PASS: pattern >= dense GFLOP-eq/s at sparsity %.2f (%.2f vs %.2f) and %.2f (%.2f vs %.2f)",
		l[1].Sparsity, l[1].PatternGFLOPEqS, l[1].DenseGFLOPEqS, last.Sparsity, last.PatternGFLOPEqS, last.DenseGFLOPEqS)}
	if s.SparserIsFasterX < sparserIsFasterFloor {
		return pass, fmt.Errorf("sparser-is-faster floor FAIL: pattern at sparsity %.2f is %.2fx pattern at %.2f, below the %.1fx floor",
			last.Sparsity, s.SparserIsFasterX, first.Sparsity, sparserIsFasterFloor)
	}
	return append(pass, fmt.Sprintf("sparser-is-faster floor PASS: pattern at sparsity %.2f is %.2fx pattern at %.2f (>= %.1fx; dense %.2fx)",
		last.Sparsity, s.SparserIsFasterX, first.Sparsity, sparserIsFasterFloor, last.DenseGFLOPEqS/first.DenseGFLOPEqS)), nil
}
