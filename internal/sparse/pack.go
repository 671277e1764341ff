package sparse

import (
	"rt3/internal/mat"
	"rt3/internal/pattern"
)

// PackSet applies a pattern set to w (per-block largest-l2 pattern choice)
// and packs the surviving weights into the Pattern execution format. The
// returned kernel computes exactly what dense execution over the masked
// weights would — the object a device runs after an RT3 level switch. Like
// NewPattern it rejects a w of more than mat.LaneMaxK (65535) rows.
//
// A nil set keeps every weight — one 1x1 pattern with its bit set,
// chosen by every tile — which is how the linears no level prunes run
// the same kernel as the pruned ones.
func PackSet(w *mat.Matrix, s *pattern.Set) (*Pattern, error) {
	if s == nil {
		return packAll(w)
	}
	choices := s.Choose(w)
	bits := make([][]uint8, len(s.Patterns))
	for i, p := range s.Patterns {
		bits[i] = p.Bits
	}
	return NewPattern(w, s.PSize(), bits, choices)
}
