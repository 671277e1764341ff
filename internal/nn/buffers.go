package nn

import "rt3/internal/mat"

// newSlot returns a module's own output slot when buffer reuse is on,
// nil (reuse off) otherwise.
func newSlot(on bool) **mat.Matrix {
	if !on {
		return nil
	}
	return new(*mat.Matrix)
}

// output returns a forward's destination: the matrix in slot, resized
// in place (reallocating only on capacity growth, so alternating row
// counts — a serving replica interleaving packed prefills with
// single-row decode steps — do not thrash the allocator), or a fresh
// matrix when slot is nil (reuse off).
func output(slot **mat.Matrix, rows, cols int) *mat.Matrix {
	return mat.EnsureShape(slot, slot != nil, rows, cols)
}
