//go:build !amd64 || purego

package mat

// The asm fast paths have no implementation off amd64 (or under the
// purego tag, which CI uses to run the portable kernels on an amd64
// runner); GemmPanels, GemmLanes, Attend and the vector math of exp.go
// run the portable kernels instead.

const hasAVX = false

func kern8x4AVX(bp, a *float64, lda int, c *float64, ldc, k, rows int) {
	panic("mat: kern8x4AVX without asm")
}

const laneAsm = false

func laneKern8AVX(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int) {
	panic("mat: laneKern8AVX without asm")
}

const cpuHasAVX512F = false

func laneKern16Z(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int) {
	panic("mat: laneKern16Z without asm")
}

func laneKern8Z(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int) {
	panic("mat: laneKern8Z without asm")
}

func vecMat16AVX(dst, a *float64, n int, b *float64, stride, cols int, scale float64) {
	panic("mat: vecMat16AVX without asm")
}

const tailAsm = false

func expSub8AVX(dst, src *float64, n int, shift float64, tab *float64) {
	panic("mat: expSub8AVX without asm")
}

func gelu8AVX(dst, src *float64, n int, tab *float64) { panic("mat: gelu8AVX without asm") }

func normRow16AVX(out, xhat, x, res, gamma, beta *float64, n int, eps float64) float64 {
	panic("mat: normRow16AVX without asm")
}

func spinPause() {}
