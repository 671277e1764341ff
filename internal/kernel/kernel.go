// Package kernel is the unified execution API every matrix product in
// the repo computes through: dense weights (the reference) and the
// pattern-packed RT3 serving path (a lane-parallel AVX micro-kernel over
// the kept weights, see mat.GemmLanes, which also runs the unpruned
// linears with every weight kept) share one destination-passing
// interface and one format registry.
//
// # Destination passing
//
// A Kernel computes dst = X @ W with the destination pre-allocated by
// the caller: MulInto never allocates in steady state, so a serving hot
// path that reuses its activation buffers runs garbage-free. Shapes are
// fixed by Dims(): for a kernel over an in x out weight matrix, X must
// be batch x in and dst batch x out (dst must not alias X). Callers that
// do not care about allocations can use the Mul convenience wrapper.
//
// # Parallelism contract
//
// Products use every core from inside: mat.GemmLanes splits its row
// blocks — or, for the single block of a decode step, its column
// partitions — across the process-wide fork-join executor (mat.Fork),
// beneath MulInto. A kernel — and a
// format registered around one, such as a timing wrapper — therefore
// sees one MulInto per product, on the calling goroutine. Kernels are
// still shared by concurrent callers (serving replicas run the same
// packed weights), so MulInto must tolerate concurrent calls on
// disjoint destinations, which every kernel in this repo does: weights
// are read-only during execution, and per-call scratch is borrowed from
// a synchronized free list.
//
// # Registry
//
// The package-level registry maps the two format names — "dense" (the
// reference every other format is tested against) and "pattern" (the
// serving default: every served linear, pruned or not) — to
// constructors, so commands and the serving engine select execution
// formats by flag or config instead of hard-coding types. Every format
// computes in float64 with one rounding definition, a fused multiply-add
// per weight in ascending k (see mat.MatMul). See Build and Options.
package kernel

import (
	"rt3/internal/mat"
	"rt3/internal/sparse"
)

// Kernel computes dst = X @ W from some packed representation of an
// in x out weight matrix W.
type Kernel interface {
	// MulInto computes dst = x @ W into the pre-allocated destination.
	// x is batch x in, dst is batch x out; dst must not alias x.
	// Implementations are allocation-free in steady state.
	MulInto(dst, x *mat.Matrix)
	// Dims returns the logical (in, out) shape of W.
	Dims() (in, out int)
	// NNZ returns the number of stored weight values.
	NNZ() int
	// IndexWords returns the number of stored index words — the storage
	// overhead the paper's format comparison argues about.
	IndexWords() int
}

// Mul is the allocating convenience wrapper: it news the batch x out
// destination and runs k.MulInto.
func Mul(k Kernel, x *mat.Matrix) *mat.Matrix {
	_, out := k.Dims()
	dst := mat.New(x.Rows, out)
	k.MulInto(dst, x)
	return dst
}

// DenseKernel executes the dense baseline through mat.MatMul. It stores
// every value (NNZ = in*out) and no index words.
type DenseKernel struct {
	W *mat.Matrix
}

// NewDense wraps a dense weight matrix. The matrix is not copied: the
// kernel sees live weight updates, which is what dense training wants.
func NewDense(w *mat.Matrix) *DenseKernel { return &DenseKernel{W: w} }

// MulInto implements Kernel via mat.MatMul.
func (d *DenseKernel) MulInto(dst, x *mat.Matrix) { mat.MatMul(dst, x, d.W) }

// Dims implements Kernel.
func (d *DenseKernel) Dims() (in, out int) { return d.W.Rows, d.W.Cols }

// NNZ implements Kernel: dense storage keeps every value.
func (d *DenseKernel) NNZ() int { return d.W.Rows * d.W.Cols }

// IndexWords implements Kernel: dense storage needs no indices.
func (d *DenseKernel) IndexWords() int { return 0 }

// compile-time checks: the reference and the pattern format are Kernels.
var (
	_ Kernel = (*DenseKernel)(nil)
	_ Kernel = (*sparse.Pattern)(nil)
)
