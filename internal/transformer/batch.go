package transformer

import (
	"fmt"

	"rt3/internal/mat"
)

// checkOffsets validates a packed-batch offsets table: off[0] == 0,
// monotonically non-decreasing, off[len-1] == rows. Returns the number
// of sequences.
func checkOffsets(name string, off []int, rows int) int {
	if len(off) < 2 || off[0] != 0 || off[len(off)-1] != rows {
		panic(fmt.Sprintf("transformer: %s offsets %v do not cover %d packed rows", name, off, rows))
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			panic(fmt.Sprintf("transformer: %s offsets %v not monotone", name, off))
		}
	}
	return len(off) - 1
}

// packIDs concatenates a batch of token sequences into one flat id
// slice plus its offsets table. Empty batches and empty sequences are
// rejected: a zero-length sequence has no pooled representation or
// next-token position to predict.
func packIDs(seqs [][]int, flat []int, off []int) ([]int, []int) {
	if len(seqs) == 0 {
		panic("transformer: ForwardBatch with no sequences")
	}
	flat = flat[:0]
	off = append(off[:0], 0)
	for i, ids := range seqs {
		if len(ids) == 0 {
			panic(fmt.Sprintf("transformer: ForwardBatch sequence %d is empty", i))
		}
		flat = append(flat, ids...)
		off = append(off, len(flat))
	}
	return flat, off
}

// addPositional adds the sinusoidal position table to a packed batch:
// row j of sequence s gets position states[s].Pos()+j, or j when states
// is nil (restarting at every sequence boundary, exactly as the
// single-sequence path does), mod the table length.
func addPositional(x *mat.Matrix, off []int, pos *mat.Matrix, states []*DecodeState) {
	for s := 0; s+1 < len(off); s++ {
		start := 0
		if states != nil {
			start = states[s].pos
		}
		for i := off[s]; i < off[s+1]; i++ {
			row := x.Row(i)
			pe := pos.Row((start + i - off[s]) % pos.Rows)
			for j := range row {
				row[j] += pe[j]
			}
		}
	}
}

// splitRows slices a packed output matrix back into per-sequence views
// (sharing storage; see the ForwardBatch aliasing contract).
func splitRows(packed *mat.Matrix, off []int) []*mat.Matrix {
	out := make([]*mat.Matrix, len(off)-1)
	for s := range out {
		out[s] = packed.RowSpan(off[s], off[s+1])
	}
	return out
}

// rowViews returns every row of a packed output as its own 1 x cols view:
// splitRows for one-row sequences.
func rowViews(packed *mat.Matrix) []*mat.Matrix {
	out := make([]*mat.Matrix, packed.Rows)
	for s := range out {
		out[s] = packed.RowSpan(s, s+1)
	}
	return out
}
