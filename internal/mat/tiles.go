package mat

// This file scores the tiles of a pattern-pruned matrix: for each
// psize x psize tile, which of a set's patterns keeps the largest l2
// norm of its weights (pattern.Set.Choose, the per-block rule of pattern
// pruning), the first half of every level build. A band of psize rows is
// scored chooseLanes adjacent tiles at a time, their weights squared
// once into scratch stored tile-minor (sq[o*chooseLanes+l] is position o
// of tile l), so that one load feeds one position of every tile.
//
// Bit contract: a tile's norm is float64(v*v) summed over the pattern's
// kept positions in row-major order from +0, one rounding per add
// (VMULPD, then VADDPD: nothing fuses). A pattern wins a tile only on a
// strictly greater norm than every lower index's, the first against -1:
// ties go to the lower index, and a NaN norm never wins. chooseGate
// picks the twin: avx512 (chooseRunZ) or the scalar loop (chooseRunGo).

// chooseLanes is the number of adjacent tiles scored side by side.
const chooseLanes = 8

// ChooseTiles sets choices[t] for every tile of w's psize x psize tiling
// that ends inside w (t counts every tile, row-major, so len(choices) is
// the tile count): the pattern whose kept positions hold the largest sum
// of squared weights (see the file comment). Pattern p keeps the
// in-tile positions i*psize+j listed, ascending, in kept[ends[p-1]:
// ends[p]] (kept[:ends[0]] for p = 0). Tiles that run past the bottom or
// the right edge of w are left to the caller.
func ChooseTiles(choices []int, w *Matrix, psize int, kept, ends []int32) {
	chooseTiles(choices, w, psize, kept, ends, chooseHost)
}

func chooseTiles(choices []int, w *Matrix, psize int, kept, ends []int32, kern isa) {
	if len(ends) == 0 {
		panic("mat: ChooseTiles with no patterns")
	}
	tileCols := (w.Cols + psize - 1) / psize
	full := w.Cols / psize // tiles of a band that end inside w
	// the ZMM twin stores eight squares per loaded chunk, up to seven
	// past a band's last position; the position after those stays +0
	zero := psize*psize + chooseLanes
	sq := make([]float64, (zero+1)*chooseLanes)
	il, rounds := interleaveKept(kept, ends, int32(zero))
	mask := 1<<((psize-1)%8+1) - 1 // the in-row lanes of a tile row's last chunk of eight
	for r, t := 0, 0; r+psize <= w.Rows; r, t = r+psize, t+tileCols {
		for tc := 0; tc < full; tc += chooseLanes {
			var best [chooseLanes]int
			n := min(chooseLanes, full-tc)
			run := w.Data[r*w.Cols+tc*psize:]
			if kern == isaZ {
				chooseRunZ(&best, &run[0], w.Cols, psize, n, mask, &il[0], &rounds[0], len(ends), &sq[0])
			} else {
				chooseRunGo(&best, run, w.Cols, psize, n, kept, ends, sq)
			}
			copy(choices[t+tc:], best[:n])
		}
	}
}

// interleaveKept lays the patterns' kept positions out for chooseRunZ:
// groups of four patterns (the last padded with patterns that keep
// nothing), each a run of rounds of four sq offsets, one position of
// each pattern per round, a pattern past its last position reading the
// +0 squares at position zero. rounds[g] counts group g's rounds, at
// least one.
func interleaveKept(kept, ends []int32, zero int32) (il, rounds []int32) {
	spans, start := make([][]int32, (len(ends)+3)/4*4), int32(0)
	for p, end := range ends {
		spans[p], start = kept[start:end], end
	}
	for g := 0; g < len(spans); g += 4 {
		group := spans[g : g+4]
		n := max(1, len(group[0]), len(group[1]), len(group[2]), len(group[3]))
		for i := range n {
			for _, s := range group {
				o := zero
				if i < len(s) {
					o = s[i]
				}
				il = append(il, o*chooseLanes)
			}
		}
		rounds = append(rounds, int32(n))
	}
	return il, rounds
}

// chooseRunGo is the portable twin: it scores the n tiles that start at
// w[0], w[psize], ... (row stride ld) into best[:n], which holds zeros.
func chooseRunGo(best *[chooseLanes]int, w []float64, ld, psize, n int, kept, ends []int32, sq []float64) {
	for i := 0; i < psize; i++ {
		for l := range n {
			dst := sq[i*psize*chooseLanes+l:]
			for j, v := range w[i*ld+l*psize:][:psize] {
				dst[j*chooseLanes] = float64(v * v)
			}
		}
	}
	bestNorm := [chooseLanes]float64{-1, -1, -1, -1, -1, -1, -1, -1}
	start := int32(0)
	for p, end := range ends {
		var n0, n1, n2, n3, n4, n5, n6, n7 float64
		for _, o := range kept[start:end] {
			q := sq[int(o)*chooseLanes:][:chooseLanes]
			n0 += q[0]
			n1 += q[1]
			n2 += q[2]
			n3 += q[3]
			n4 += q[4]
			n5 += q[5]
			n6 += q[6]
			n7 += q[7]
		}
		start = end
		for l, norm := range [chooseLanes]float64{n0, n1, n2, n3, n4, n5, n6, n7} {
			if norm > bestNorm[l] {
				bestNorm[l] = norm
				best[l] = p
			}
		}
	}
}
