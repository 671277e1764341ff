package nn

import (
	"fmt"
	"math/rand"

	"rt3/internal/kernel"
	"rt3/internal/mat"
)

// Linear is a fully connected layer computing Y = X @ W + b, where X is
// batch x in, W is in x out and b is 1 x out.
type Linear struct {
	In, Out int
	W       *Parameter
	B       *Parameter

	// kern, when non-nil, replaces the dense X @ W product in Forward
	// with a packed execution kernel (see internal/kernel).
	kern kernel.Kernel

	// out is the slot Forward writes through when buffer reuse is on, nil
	// when it is off: the layer's own (SetBufferReuse) or one it shares
	// (SetOutputSlot).
	out **mat.Matrix

	// the input of a forward with buffer reuse off, for the backward pass
	x *mat.Matrix
}

// NewLinear creates a Linear layer with Xavier-initialized weights.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   NewParameter(name+".W", in, out),
		B:   NewParameter(name+".b", 1, out),
	}
	l.W.Value.RandomizeXavier(rng, in, out)
	return l
}

// Params implements Module.
func (l *Linear) Params() []*Parameter { return []*Parameter{l.W, l.B} }

// SetKernel installs a packed execution kernel used by Forward in place
// of the dense X @ W product; nil restores dense execution. The kernel's
// dims must match the layer. Installing a kernel switches Forward to the
// serving-time execution path: the dense W is no longer read, so weight
// updates do not reach a stale kernel — Backward guards against that by
// refusing to run while a kernel is installed.
func (l *Linear) SetKernel(k kernel.Kernel) {
	if k != nil {
		in, out := k.Dims()
		if in != l.In || out != l.Out {
			panic(fmt.Sprintf("nn: Linear %s kernel dims %dx%d, want %dx%d", l.W.Name, in, out, l.In, l.Out))
		}
	}
	l.kern = k
}

// Kernel returns the installed packed kernel, or nil when dense.
func (l *Linear) Kernel() kernel.Kernel { return l.kern }

// SetBufferReuse toggles the preallocated output buffer. With reuse on,
// Forward writes into one reusable destination (reallocated only when
// the batch outgrows it) and returns it: zero steady-state allocations,
// but the previous call's output is overwritten, so callers retaining
// outputs across forward passes must copy them first. Reuse on is the
// serving mode, which is forward-only: Forward keeps no input for
// Backward. Off (the default) preserves fresh-allocation semantics.
func (l *Linear) SetBufferReuse(on bool) { l.SetOutputSlot(newSlot(on)) }

// SetOutputSlot turns buffer reuse on with Forward writing through slot,
// which other modules may share: an output is then overwritten by the
// next forward of any module on the same slot. A nil slot turns reuse
// off.
func (l *Linear) SetOutputSlot(slot **mat.Matrix) {
	l.out = slot
	l.x = nil
}

// Forward computes the affine map for a batch x In input.
func (l *Linear) Forward(x *mat.Matrix) *mat.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear %s input cols %d != in %d", l.W.Name, x.Cols, l.In))
	}
	l.x = nil
	if l.out == nil {
		l.x = x
	}
	y := output(l.out, x.Rows, l.Out)
	if l.kern != nil {
		l.kern.MulInto(y, x)
	} else {
		mat.MatMul(y, x, l.W.Value)
	}
	y.AddRowVector(l.B.Value.Data)
	return y
}

// Backward accumulates dL/dW and dL/db from the upstream gradient and
// returns dL/dX. Forward must have been called first.
//
// Backward always differentiates through the dense W. When a packed
// kernel is installed, Forward computed through pruned weights, so the
// gradients would be silently inconsistent (and the updated W would
// never reach the already-packed kernel); Backward therefore panics
// until SetKernel(nil) restores dense execution.
func (l *Linear) Backward(dy *mat.Matrix) *mat.Matrix {
	if l.kern != nil {
		panic(fmt.Sprintf("nn: Linear %s Backward with a packed kernel installed: Forward ran pruned weights but Backward would differentiate the dense W; call SetKernel(nil) before training", l.W.Name))
	}
	if l.x == nil {
		panic(fmt.Sprintf("nn: Linear %s Backward without its input: no Forward ran, or it ran with buffer reuse on (the serving mode, which is forward-only); call SetBufferReuse(false) before training", l.W.Name))
	}
	// dW += x^T @ dy
	dw := mat.New(l.In, l.Out)
	mat.MatMulTA(dw, l.x, dy)
	l.W.Grad.Add(dw)
	// db += column sums of dy
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j, v := range row {
			l.B.Grad.Data[j] += v
		}
	}
	// dx = dy @ W^T
	dx := mat.New(dy.Rows, l.In)
	mat.MatMulT(dx, dy, l.W.Value)
	return dx
}

// Embedding maps token ids to d-dimensional rows of a learned table.
type Embedding struct {
	Vocab, Dim int
	W          *Parameter

	ids []int

	out   *mat.Matrix
	reuse bool
}

// NewEmbedding creates an embedding table with small random init.
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{Vocab: vocab, Dim: dim, W: NewParameter(name+".W", vocab, dim)}
	e.W.Value.Randomize(rng, 0.1)
	return e
}

// Params implements Module.
func (e *Embedding) Params() []*Parameter { return []*Parameter{e.W} }

// SetBufferReuse toggles the preallocated gather buffer (see
// Linear.SetBufferReuse for the aliasing contract).
func (e *Embedding) SetBufferReuse(on bool) {
	e.reuse = on
	if !on {
		e.out = nil
	}
}

// Forward gathers rows for ids into a len(ids) x Dim matrix.
func (e *Embedding) Forward(ids []int) *mat.Matrix {
	e.ids = ids
	out := mat.EnsureShape(&e.out, e.reuse, len(ids), e.Dim)
	for i, id := range ids {
		if id < 0 || id >= e.Vocab {
			panic(fmt.Sprintf("nn: Embedding id %d out of vocab %d", id, e.Vocab))
		}
		copy(out.Row(i), e.W.Value.Row(id))
	}
	return out
}

// Backward scatters the upstream gradient back into the table rows.
func (e *Embedding) Backward(dy *mat.Matrix) {
	for i, id := range e.ids {
		grow := e.W.Grad.Row(id)
		drow := dy.Row(i)
		for j, v := range drow {
			grow[j] += v
		}
	}
}
