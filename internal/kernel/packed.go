package kernel

import "rt3/internal/mat"

// The "packed" format executes through the register-blocked micro-kernel
// GEMM in internal/mat: weights repack once into panel form at Build
// time (amortized across every subsequent MulInto, like the pattern
// kernel's packed weight stream), and the product runs 8x4 accumulator
// tiles over the panels, bit-identical to dense execution.

// PackedKernel executes dst = X @ W through packed weight panels.
type PackedKernel struct {
	in, out int
	panels  *mat.Panels
}

// NewPacked packs w into weight panels. The weights are copied by the
// packing: later writes to w are not seen (unlike NewDense).
func NewPacked(w *mat.Matrix) *PackedKernel {
	return &PackedKernel{in: w.Rows, out: w.Cols, panels: mat.PackPanels(w)}
}

// MulInto implements Kernel via the micro-kernel GEMM.
func (k *PackedKernel) MulInto(dst, x *mat.Matrix) {
	checkDst(k, dst, x)
	mat.GemmPanels(dst, x.Data[:x.Rows*x.Cols], k.panels)
}

// Dims implements Kernel.
func (k *PackedKernel) Dims() (in, out int) { return k.in, k.out }

// NNZ implements Kernel: panel storage keeps every value (padding
// excluded — it is layout, not payload).
func (k *PackedKernel) NNZ() int { return k.in * k.out }

// IndexWords implements Kernel: panels are position-addressed.
func (k *PackedKernel) IndexWords() int { return 0 }

// compile-time check: the "packed" format is a Kernel.
var _ Kernel = (*PackedKernel)(nil)
