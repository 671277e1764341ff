//go:build amd64 && !purego

package mat

// chooseRunZ is chooseRunGo in ZMM registers (tiles_amd64.s): it
// squares the run's psize rows eight tiles by eight positions at a time,
// through an 8x8 register transpose into sq (tile-minor, up to seven
// positions past the run's last), and sums the kept squares of four
// patterns at a time, one register each. kept lists the sq offsets of
// each group of four patterns' kept positions, round by round (see
// interleaveKept); rounds[g] counts group g's rounds, at least one. mask holds the
// in-row lanes of a tile row's last chunk of eight positions; lanes past
// tile n-1 read tile n-1 again. Needs AVX-512F (chooseGate).
//
//go:noescape
func chooseRunZ(best *[chooseLanes]int, w *float64, ld, psize, n, mask int, kept, rounds *int32, npat int, sq *float64)
