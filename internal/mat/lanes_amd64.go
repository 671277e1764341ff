//go:build amd64 && !purego

package mat

// laneAsm gates the AVX lane kernels; hosts without AVX run laneKernGo.
var laneAsm = hasAVX

// laneKern8AVX runs one column group (steps >= 1 interleaved steps of
// LaneGroup weights) against one 8-lane xt block and scatters the first
// rows rows of the result into c (row stride ldc) at the group's
// LaneGroup columns cols (lanes_amd64.s). Bit-identical to laneKernGo.
//
//go:noescape
func laneKern8AVX(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int)

// laneKern16Z is laneKern8AVX over a 16-lane xt block (rows <= 16),
// laneKern8Z over the same 8-lane block in one ZMM register per column;
// both need cpuHasAVX512F.
//
//go:noescape
func laneKern16Z(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int)

//go:noescape
func laneKern8Z(idx *uint16, val *float64, steps int, xt, c *float64, ldc int, cols *int32, rows int)
