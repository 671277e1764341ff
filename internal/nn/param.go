// Package nn is the neural-network training substrate of the RT3
// reproduction. It provides parameters with attached binary masks (the
// mechanism both block-structured and pattern pruning are realized
// through), the layers a small Transformer needs, losses and optimizers.
//
// Every layer exposes an explicit Forward/Backward pair; there is no
// autodiff graph. Correctness of each Backward is enforced by
// finite-difference gradient checks in the package tests.
package nn

import (
	"fmt"

	"rt3/internal/mat"
)

// Parameter is a trainable tensor with its gradient accumulator and an
// optional binary mask. When a mask is attached, ApplyMask zeroes the
// masked weights and MaskGrad zeroes the corresponding gradients, so
// training a pruned model keeps pruned positions exactly at zero.
type Parameter struct {
	Name  string
	Value *mat.Matrix
	// Grad is nil until something accumulates into it (Gradient): a
	// parameter that only serves never holds one, and a nil Grad reads
	// as zeros.
	Grad *mat.Matrix
	// Mask holds 0/1 entries; nil means dense (no pruning).
	Mask *mat.Matrix
}

// NewParameter allocates a named rows x cols parameter with no gradient
// and no mask.
func NewParameter(name string, rows, cols int) *Parameter {
	return &Parameter{Name: name, Value: mat.New(rows, cols)}
}

// Gradient returns the gradient accumulator, allocating it zeroed on
// first use.
func (p *Parameter) Gradient() *mat.Matrix {
	if p.Grad == nil {
		p.Grad = mat.New(p.Value.Rows, p.Value.Cols)
	}
	return p.Grad
}

// SetMask attaches mask (0/1 entries, same shape as Value) and applies it.
// Passing nil removes the mask.
func (p *Parameter) SetMask(mask *mat.Matrix) {
	if mask != nil && (mask.Rows != p.Value.Rows || mask.Cols != p.Value.Cols) {
		panic(fmt.Sprintf("nn: mask shape %dx%d != param %q %dx%d",
			mask.Rows, mask.Cols, p.Name, p.Value.Rows, p.Value.Cols))
	}
	p.Mask = mask
	p.ApplyMask()
}

// ApplyMask zeroes masked weight positions. It is a no-op without a mask.
func (p *Parameter) ApplyMask() {
	if p.Mask == nil {
		return
	}
	p.Value.Hadamard(p.Mask)
}

// MaskGrad zeroes gradients at masked positions. It is a no-op without a
// mask.
func (p *Parameter) MaskGrad() {
	if p.Mask == nil {
		return
	}
	p.Gradient().Hadamard(p.Mask)
}

// ZeroGrad clears the gradient accumulator; one not yet allocated is
// already zero.
func (p *Parameter) ZeroGrad() {
	if p.Grad != nil {
		p.Grad.Zero()
	}
}

// NumWeights returns the dense element count of the parameter.
func (p *Parameter) NumWeights() int { return len(p.Value.Data) }

// Module is anything holding trainable parameters.
type Module interface {
	// Params returns the parameters of the module in a stable order.
	Params() []*Parameter
}

// CollectParams flattens the parameters of several modules.
func CollectParams(mods ...Module) []*Parameter {
	var out []*Parameter
	for _, m := range mods {
		out = append(out, m.Params()...)
	}
	return out
}

// ZeroGrads clears every gradient in params.
func ZeroGrads(params []*Parameter) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ApplyMasks re-applies every attached mask in params.
func ApplyMasks(params []*Parameter) {
	for _, p := range params {
		p.ApplyMask()
	}
}

// GlobalSparsity returns the overall fraction of zero weights across
// params (0 when params is empty).
func GlobalSparsity(params []*Parameter) float64 {
	var zeros, total int
	for _, p := range params {
		total += p.NumWeights()
		for _, v := range p.Value.Data {
			if v == 0 {
				zeros++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(zeros) / float64(total)
}
