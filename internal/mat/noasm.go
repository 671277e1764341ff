//go:build !amd64 || purego

package mat

// The asm fast paths have no implementation off amd64 (or under the
// purego tag, which CI uses to run the portable kernels on an amd64
// runner): with no CPU features every gate of cpu.go is off, and
// GemmLanes, Attend, ChooseTiles and the vector math of exp.go run the
// portable kernels instead.

var hostCPU cpuFeatures

func laneKern8AVX(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int) {
	panic("mat: laneKern8AVX without asm")
}

func laneKern16Z(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int) {
	panic("mat: laneKern16Z without asm")
}

func laneKern8Z(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int) {
	panic("mat: laneKern8Z without asm")
}

func attendScoresZ(p, q *float64, hd int, k *[]float64, ko, ld, rows int, scale float64) {
	panic("mat: attendScoresZ without asm")
}

func attendValuesZ(out, p *float64, hd int, v *[]float64, vo, ld, vs, rows int) {
	panic("mat: attendValuesZ without asm")
}

func attendScoresAVX(p, q *float64, hd int, k *[]float64, ko, ld, rows int, scale float64) {
	panic("mat: attendScoresAVX without asm")
}

func attendValuesAVX(out, p *float64, hd int, v *[]float64, vo, ld, vs, rows int) {
	panic("mat: attendValuesAVX without asm")
}

func chooseRunZ(best *[chooseLanes]int, w *float64, ld, psize, n, mask int, kept, rounds *int32, npat int, sq *float64) {
	panic("mat: chooseRunZ without asm")
}

func packLanes8Z(xt, x *float64, K, lanes, rows, kn int) { panic("mat: packLanes8Z without asm") }

func expSub8AVX(dst, src *float64, n int, shift float64, tab *float64) {
	panic("mat: expSub8AVX without asm")
}

func gelu8AVX(dst, src *float64, n int, tab *float64) { panic("mat: gelu8AVX without asm") }

func geluZ(dst, src *float64, n int, tab *float64) { panic("mat: geluZ without asm") }

func softmaxZ(dst, src *float64, n int, tab *float64) { panic("mat: softmaxZ without asm") }

func normRow16AVX(out, xhat, x, res, gamma, beta *float64, n int, eps float64) float64 {
	panic("mat: normRow16AVX without asm")
}

func spinPause() {}
