package kernel

import (
	"fmt"

	"rt3/internal/mat"
)

// The "packed" format executes through the register-blocked micro-kernel
// GEMM in internal/mat: weights repack once into panel form at Build
// time (amortized across every subsequent MulInto, like the pattern
// kernel's packed weight stream), and the product runs 8x4 accumulator
// tiles over the panels. Options.Precision selects the panel type:
//
//	"" or "f64" — float64 panels; bit-identical to dense execution.
//	"f32"       — float32 panels and float32 accumulation; ~half the
//	              weight bytes, results within documented tolerance.
//	"int8"      — quantized panels (per-column weight scale, per-row
//	              activation affine); quarter weight bytes, exact integer
//	              contraction, quantization-bounded output error.

// PackedKernel executes dst = X @ W through float64 weight panels.
type PackedKernel struct {
	in, out int
	panels  *mat.Panels[float64]
}

// NewPacked packs w into float64 panels. The weights are copied by the
// packing: later writes to w are not seen (unlike NewDense).
func NewPacked(w *mat.Matrix) *PackedKernel {
	return &PackedKernel{in: w.Rows, out: w.Cols, panels: mat.PackPanels[float64](w)}
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

// Packed32Kernel executes through float32 panels with float32
// accumulation; activations convert to f32 scratch per call.
type Packed32Kernel struct {
	in, out int
	panels  *mat.Panels[float32]
}

// NewPacked32 packs w into float32 panels.
func NewPacked32(w *mat.Matrix) *Packed32Kernel {
	return &Packed32Kernel{in: w.Rows, out: w.Cols, panels: mat.PackPanels[float32](w)}
}

// MulInto implements Kernel via the float32 micro-kernel GEMM.
func (k *Packed32Kernel) MulInto(dst, x *mat.Matrix) {
	checkDst(k, dst, x)
	mat.Gemm32(dst, x, k.panels)
}

// Dims implements Kernel.
func (k *Packed32Kernel) Dims() (in, out int) { return k.in, k.out }

// NNZ implements Kernel.
func (k *Packed32Kernel) NNZ() int { return k.in * k.out }

// IndexWords implements Kernel.
func (k *Packed32Kernel) IndexWords() int { return 0 }

// Int8Kernel executes through int8-quantized panels: per-column weight
// scales, per-row activation quantization, exact int32 contraction.
type Int8Kernel struct {
	in, out int
	panels  *mat.PanelsInt8
}

// NewInt8 quantizes and packs w into int8 panels.
func NewInt8(w *mat.Matrix) *Int8Kernel {
	return &Int8Kernel{in: w.Rows, out: w.Cols, panels: mat.PackPanels8(w)}
}

// MulInto implements Kernel via the quantized micro-kernel GEMM.
func (k *Int8Kernel) MulInto(dst, x *mat.Matrix) { mat.Gemm8(dst, x, k.panels) }

// Dims implements Kernel.
func (k *Int8Kernel) Dims() (in, out int) { return k.in, k.out }

// NNZ implements Kernel.
func (k *Int8Kernel) NNZ() int { return k.in * k.out }

// IndexWords implements Kernel: the per-column scale and column-sum
// metadata is two words per output column.
func (k *Int8Kernel) IndexWords() int { return 2 * k.out }

// buildPacked resolves Options.Precision for the "packed" format.
func buildPacked(w *mat.Matrix, opts Options) (Kernel, error) {
	switch opts.Precision {
	case "", "f64":
		return NewPacked(masked(w, opts)), nil
	case "f32":
		return NewPacked32(masked(w, opts)), nil
	case "int8":
		return NewInt8(masked(w, opts)), nil
	default:
		return nil, fmt.Errorf("kernel: unknown precision %q (want \"f64\", \"f32\" or \"int8\")", opts.Precision)
	}
}

// compile-time checks: every precision of "packed" is a Kernel.
var (
	_ Kernel = (*PackedKernel)(nil)
	_ Kernel = (*Packed32Kernel)(nil)
	_ Kernel = (*Int8Kernel)(nil)
)
