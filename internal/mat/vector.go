package mat

// Dot returns the inner product of a and b; the slices must have equal
// length (enforced by panic, as a programming error).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Argmax returns the index of the largest element of v (first on ties).
func Argmax(v []float64) int {
	best, bv := 0, v[0]
	for i, x := range v[1:] {
		if x > bv {
			bv = x
			best = i + 1
		}
	}
	return best
}
